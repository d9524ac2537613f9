#!/usr/bin/env python3
"""Replay the bundled sample data end to end and print every headline
number: coefficients, predictions, validation metrics and the cost trace."""

from ctrserve import sample_data
from ctrserve.evaluation import evaluate, r_squared, standard_error
from ctrserve.regression import NORMAL_EQUATION, TrainingConfig, predict, train


def main():
    rows = sample_data.training_sample()
    kmap = sample_data.sports_keyword_map()

    print("== published coefficient replay ==")
    model = sample_data.normal_equation_model()
    print(f"theta = {[float(t) for t in model.theta]}")
    print(f"predict(above_fold, 300x250, bid 22, keyword 51) = {predict(model, (1, 1, 22, 51)):.6f}")

    print("\n== normal equation on the 12-row sample ==")
    refit = train(rows, kmap, TrainingConfig(method=NORMAL_EQUATION))
    print(f"theta = {[float(t) for t in refit.theta]}")
    print(f"predict(1, 1, 22, 51) = {predict(refit, (1, 1, 22, 51)):.6f}")

    print("\n== gradient descent (alpha 0.01, 400 iterations, scaled) ==")
    gd = train(rows, kmap, TrainingConfig())
    trace = gd.cost_trace
    print(f"theta (scaled space) = {[float(t) for t in gd.theta]}")
    print(f"cost: start {trace[0]:.6e} -> end {trace[-1]:.6e} over {len(trace)} iterations")
    print(f"gd vs normal-equation prediction gap at (1,1,22,51): "
          f"{abs(predict(gd, (1, 1, 22, 51)) - predict(refit, (1, 1, 22, 51))):.2e}")

    print("\n== validation set ==")
    report = evaluate(model, sample_data.validation_sample())
    print(f"SE = {report.se:.6f}, R^2 = {report.r_squared:.4f}")

    print("\n== stored (observed, predicted) pair replay ==")
    y, y_pred = sample_data.validation_pairs()
    print(f"SE = {standard_error(y, y_pred):.9f}")
    print(f"R^2 = {r_squared(y, y_pred):.6f}")


if __name__ == "__main__":
    main()
