// Package emlrtm is a reproduction of "Optimising Resource Management for
// Embedded Machine Learning" (Xun, Tran-Thanh, Al-Hashimi, Merrett — DATE
// 2020) as a reusable Go library.
//
// It provides, end to end:
//
//   - a dynamic DNN built with incremental training and group-convolution
//     pruning (the paper's Fig 3), on a from-scratch tensor/NN substrate,
//     whose 25/50/75/100% configurations switch at runtime with no
//     retraining and no extra storage;
//   - calibrated models of the paper's evaluation platforms (Odroid XU3,
//     Jetson Nano, and a flagship phone SoC with an NPU) — DVFS ladders,
//     CV²f power, lumped RC thermal — fitted to the paper's Table I;
//   - the operating-point space of Fig 4(a) with Pareto/budget queries;
//   - a discrete-event simulator for multi-application workloads and the
//     PRiME-style runtime manager of Fig 5 (knobs/monitors, an ondemand
//     DVFS governor baseline, and a co-optimising planner over model
//     level, task mapping and DVFS) that reproduces the Fig 2 runtime
//     scenario;
//   - experiment drivers regenerating every table and figure, plus the
//     ablations indexed in internal/experiments.
//
// The root package is a facade over the internal packages: it re-exports
// the stable types and constructors a downstream user needs. See README.md
// for a tour; the package Examples (go test -run Example -v .) are
// runnable programs whose output go test checks.
package emlrtm
