//! Tensor shapes.

use std::fmt;

/// The dimensions of a [`Tensor`](crate::Tensor).
///
/// A shape is an ordered list of dimension sizes in row-major order. A
/// zero-dimensional shape (`Shape::scalar()`) denotes a scalar holding one
/// element.
///
/// # Examples
///
/// ```
/// use cascade_tensor::Shape;
///
/// let s = Shape::new(vec![2, 3]);
/// assert_eq!(s.len(), 6);
/// assert_eq!(s.dims(), &[2, 3]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from explicit dimension sizes.
    pub fn new(dims: Vec<usize>) -> Self {
        Shape { dims }
    }

    /// Creates the zero-dimensional (scalar) shape.
    pub fn scalar() -> Self {
        Shape { dims: Vec::new() }
    }

    /// The dimension sizes in row-major order.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total number of elements (product of dimensions; 1 for scalars).
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// `true` if the shape contains zero elements (some dimension is 0).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.dims)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(dims.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_shape_has_one_element() {
        let s = Shape::scalar();
        assert_eq!(s.len(), 1);
        assert!(s.dims().is_empty());
        assert!(!s.is_empty());
    }
}
