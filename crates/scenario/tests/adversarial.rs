//! Adversarial-recipe acceptance: every committed perturbation recipe
//! must run end to end (scaled down for CI wall-clock), and the reorder
//! recipe's training trajectory must be bit-identical to its presorted
//! control — proving `BufferedReorder` fully undoes scrambled,
//! duplicated delivery before a single gradient is taken.

use std::path::PathBuf;

use cascade_scenario::{load_recipe, ScenarioRunner};

fn repo_recipe(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../recipes")
        .join(name)
}

#[test]
fn all_four_adversarial_recipes_train_without_panics() {
    for name in [
        "adv_flash_crowd.json",
        "adv_churn.json",
        "adv_skew_shift.json",
        "adv_reorder.json",
    ] {
        let recipe = load_recipe(&repo_recipe(name))
            .expect("committed recipe parses")
            .scaled(0.02);
        let report = ScenarioRunner::new(recipe)
            .train(None)
            .unwrap_or_else(|e| panic!("{} failed: {}", name, e));
        assert_eq!(report.epochs, 1, "{}: one epoch trained", name);
        assert!(
            report.final_train_loss.is_finite() && report.final_train_loss > 0.0,
            "{}: loss must be finite and positive, got {}",
            name,
            report.final_train_loss
        );
        assert_eq!(
            report.phases.len(),
            3,
            "{}: per-phase losses cover the recipe",
            name
        );
        assert!(
            report.phases.iter().any(|p| p.batches > 0),
            "{}: at least one phase must receive training batches",
            name
        );
    }
}

#[test]
fn reorder_training_is_bit_identical_to_the_presorted_control() {
    let scrambled = load_recipe(&repo_recipe("adv_reorder.json"))
        .expect("committed recipe parses")
        .scaled(0.05);
    let control = scrambled.presorted_control();
    assert!(scrambled.delivered_events() > scrambled.base_events());
    assert_eq!(control.delivered_events(), control.base_events());

    let scrambled_report = ScenarioRunner::new(scrambled)
        .train(None)
        .expect("scrambled run trains");
    let control_report = ScenarioRunner::new(control)
        .train(None)
        .expect("control run trains");

    assert_eq!(
        scrambled_report.epoch_losses.len(),
        control_report.epoch_losses.len()
    );
    for (i, (a, b)) in scrambled_report
        .epoch_losses
        .iter()
        .zip(&control_report.epoch_losses)
        .enumerate()
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "epoch {} loss diverged: {} vs {}",
            i,
            a,
            b
        );
    }
    assert_eq!(
        scrambled_report.final_train_loss.to_bits(),
        control_report.final_train_loss.to_bits(),
        "final loss must be bit-identical: {} vs {}",
        scrambled_report.final_train_loss,
        control_report.final_train_loss
    );
    assert_eq!(
        scrambled_report.val_loss.to_bits(),
        control_report.val_loss.to_bits(),
        "val loss must be bit-identical"
    );
}
