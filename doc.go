// Package silenttracker is a from-scratch Go reproduction of "Silent
// Tracker: In-band Beam Management for Soft Handover for mm-Wave
// Networks" (Ganji, Lin, Kim, Kumar — SIGCOMM '21 Posters & Demos).
//
// Silent Tracker lets a mm-wave mobile at a cell edge keep a receive
// beam silently aligned to a neighboring base station — one it has no
// connection to and receives no assistance from — using nothing but
// in-band RSS, while the BeamSurfer protocol maintains the serving
// link. Holding that alignment until random access completes is what
// turns an otherwise hard handover into a soft one.
//
// The paper evaluated the protocol on a 60 GHz SDR testbed; this
// module substitutes a calibrated discrete-event simulation of the
// whole stack (antenna codebooks, 60 GHz channel with blockage and
// multipath self-interference, SSB-style beacon sweeps, RACH, base
// stations, a single-RF-chain mobile) so that every figure and table
// in the evaluation regenerates from `go test -bench` or cmd/stbench.
//
// Layout:
//
//   - st/ — the public, embeddable API: Client/Session execution with
//     context cancellation, typed progress events, structured Results,
//     and renderers reproducing the CLI output byte for byte
//   - internal/core        — the Silent Tracker protocol (Fig. 2b machine)
//   - internal/beamsurfer  — the serving-link protocol it builds on
//   - internal/{antenna, channel, phy, mac, cell, ue, mobility} — substrates
//   - internal/{world, experiments, handover, netem, trace} — harness
//   - internal/runner      — deterministic parallel trial engine
//   - internal/campaign    — declarative sweeps + pluggable content-addressed
//     result stores (mem LRU / disk / remote HTTP, composed into tiers)
//   - internal/campaign/storehttp — serves any campaign.Store over HTTP
//     (the server half of the remote tier), with /healthz and /metrics
//   - internal/obs — dependency-free metrics registry (lock-free
//     counters/gauges/histograms), run-scoped spans, Prometheus text
//     exposition; a nil registry costs nothing
//   - internal/serve — the stserve campaign daemon: concurrent job
//     sessions over one shared store stack, SSE progress streams,
//     admission control with per-client fair queueing, graceful drain
//   - internal/dist — distributed campaign execution: a unit-lease
//     coordinator (range sharding, work stealing, lease-TTL recovery)
//     the daemon mounts at /dist/, and the worker loop behind stworker
//   - internal/scenario    — declarative multi-cell, multi-UE world generator
//   - cmd/{stbench, stcampaign, stsim, stmachine, sttrace} — executables;
//     stbench and stcampaign are thin shells over st (flags + renderer
//     choice)
//   - cmd/stserve — the campaign daemon binary (HTTP front of
//     internal/serve; doubles as the distributed-run coordinator)
//   - cmd/stworker — the fleet worker binary: leases trial units
//     from a coordinator, computes them locally, writes through the
//     shared store
//   - examples/ — runnable scenarios (quickstart is the st API tour)
//   - e2e/      — end-to-end CLI and examples tests (real binaries, os/exec)
//
// Every experiment shards its independent trials across a worker pool
// (internal/runner; stbench's -j flag) with a hard determinism
// guarantee: the same seed produces byte-identical tables at any
// worker count, because each trial's randomness is a pure function of
// (seed, trial index) and results are folded in trial order.
//
// The eight paper experiments are declared as campaign specs
// (internal/campaign): a grid of axes, a seed schedule, and a trial
// body. The campaign engine keys every trial unit by a content hash
// of (spec identity, cell, seed, code-relevant config) into a
// pluggable result store — an on-disk cache, a size-budgeted
// in-memory LRU, a shared remote store, or a read-through tiered mix
// — so a warm `stcampaign run` of an already-computed spec performs
// zero trial computations while emitting byte-identical tables, and a
// sweep that shares cells with a previous one computes only the
// delta. The store mix never changes rendered bytes; it only changes
// how many units recompute.
//
// The same content addresses let a campaign scale past one process:
// an stserve daemon can coordinate a fleet of stworker processes,
// leasing unit ranges over HTTP while the workers fill the shared
// store and the coordinator folds in deterministic unit order — a
// cold N-worker distributed run renders stdout byte-identical to a
// warm single-machine run, with lease TTLs, heartbeats, and work
// stealing covering worker failure (internal/dist).
//
// Beyond the paper's three single-UE mobility cases, internal/scenario
// generates whole families of worlds from declarative specs: a cell
// topology (linear corridor, hex grid, ring), a UE fleet (count,
// spawn region, a seeded mix of walk/rotation/vehicular mobility),
// and a blocker field, compiled onto the world/cell/ue/mobility
// substrates with one deterministic RNG stream per generated entity.
// Three scenario families ship as campaigns — urban (hex-grid
// handover storms), highway (alignment hold vs vehicular speed), and
// hotspot (silent tracking under a blocker field) — swept and cached
// like every other experiment.
//
// The per-sample simulation kernel is allocation-free and
// table-driven: internal/sim pools events through a free list behind
// a specialised 4-ary heap, internal/antenna precomputes per-codebook
// gain lookup tables (and interns codebooks, which are immutable),
// and internal/channel routes all dB↔linear conversion through the
// internal/mathx fast kernel with link constants cached at
// construction. PERFORMANCE.md records the hot-path inventory and the
// before/after numbers; BENCH_<pr>.json files are the perf
// trajectory.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured results.
package silenttracker
