// Package st is the public, embeddable API of the silenttracker
// module: everything the stbench and stcampaign CLIs do — listing,
// describing, and running the registered experiments and campaigns —
// is available programmatically, with context-aware cancellation, a
// typed progress event stream, and structured results instead of
// pre-rendered text.
//
// The layer boundary: st is the only public package; the CLIs under
// cmd/ are thin shells over it (flag parsing and renderer selection),
// and everything below stays internal:
//
//	cmd/stbench, cmd/stcampaign        (flags + renderer choice)
//	            │
//	            ▼
//	           st                      (Client/Session, Result, renderers)
//	            │
//	            ▼
//	internal/experiments               (the 11 registered campaigns)
//	            │
//	            ▼
//	internal/campaign ── internal/runner   (sweeps, result stores, worker pool)
//	            │
//	            ▼
//	internal/{sim, world, scenario, core, …}  (the simulated stack)
//
// # Sessions and results
//
// A Client carries cross-run configuration (result store, worker
// count); a Session binds one experiment with per-run knobs (seed,
// trial count, quick mode). Run returns a Result: the experiment's
// typed summary Table (named, unit-annotated columns), the raw
// per-cell Metrics of every trial, and the run's Stats (including
// per-store-tier counters).
//
//	client, err := st.NewClient(st.WithCacheDir(".stcache"))
//	...
//	res, err := client.Run(ctx, "fig2a", st.WithQuick())
//	...
//	st.RenderText(os.Stdout, res)
//
// # Result stores
//
// The content-addressed result store is pluggable and tiered:
// WithCacheDir enables the on-disk tier, WithMemCache adds a
// size-budgeted in-memory LRU hot tier in front of it, and
// WithRemoteCache adds a shared storehttp server behind it (reads
// fall through mem → disk → remote; hits backfill the faster tiers;
// writes go to every tier). WithStore plugs in a custom backend. The
// store mix never changes rendered bytes — eviction, cold tiers, and
// dead remotes only change how many units recompute.
//
// # Resilience
//
// WithRemoteRetry arms the remote tier with bounded retries
// (exponential backoff, deterministic jitter, a per-op time budget)
// and a circuit breaker that short-circuits Gets to misses and Puts
// to drops after consecutive failures, probing half-open after a
// cooldown. WithChaos wraps one tier in deterministic fault
// injection — a named profile (see ChaosProfiles) whose schedule is
// a pure function of the seed — for resilience testing; the same
// seed replays the same faults. Retry, breaker, and injected-fault
// activity surfaces as extra per-tier counters in Stats.Store, a
// failed store write as Stats.PutFailed plus one StoreDegraded
// progress event per run. None of it ever changes rendered bytes.
//
// # Metrics
//
// WithMetrics attaches a telemetry registry to the client (or, as a
// session option, to one session). Each Run then carries
// Result.Report — the run's span tree (expand/execute/fold phase
// timings) plus per-run metric deltas: unit outcomes, per-unit
// compute/cache service time, worker busy/idle/dispatch-wait, and
// per-store-tier get/put latency histograms measured outside the
// retry and breaker wrappers. Client.MetricsHandler serves the
// cumulative registry as Prometheus text (the CLIs mount it under
// -metrics-addr), and the engine emits PhaseDone progress events.
// Telemetry is measurement, not results: rendered bytes are identical
// with metrics on or off, and a client without WithMetrics pays
// nothing — the instruments are nil and every call no-ops.
//
// # Determinism and rendering
//
// Results are deterministic: the same experiment, seed, and trial
// count produce identical Results at any worker count, cold or warm.
// RenderText reproduces the stbench table bytes exactly;
// RenderCampaignText and RenderJSON reproduce the stcampaign text and
// JSON wire format, byte for byte. Rendering is a pure function of the
// Result value, so a Result that has round-tripped through JSON still
// renders identically. The text tables format Result.Table alone:
// every number they print is a column of the typed Table.
//
// # Cancellation and progress
//
// Run honours its context: once cancelled, no further trial unit is
// dispatched, in-flight units complete and persist to the cache, and
// the error (a *CancelledError wrapping ctx.Err()) reports how much
// finished. A cancelled cold run followed by a warm run computes only
// the remainder. WithProgress subscribes a callback to the typed event
// stream (UnitDone, CellDone, PhaseDone, SpecDone); events are delivered
// serially, so the callback needs no locking.
//
// # Serving
//
// The types and helpers the stserve campaign daemon shares with its
// clients live here, so driving a daemon needs nothing but this
// package and net/http: JobRequest / JobStatus / JobEvent are the
// wire vocabulary of POST /jobs, GET /jobs/{id}, and the SSE event
// stream (EventWire flattens a typed Event onto the wire;
// JobEvent.Event reconstructs it). Client.StoreHandler serves the
// client's result store over HTTP in the storehttp wire format, so
// remote workers can point WithRemoteCache at this process and share
// its computed units. NewHTTPServer is the shared serving lifecycle
// (synchronous bind, background serve with reported errors, clean
// shutdown) used by the daemon and the CLIs' -metrics-addr endpoints.
//
// # Distributed execution
//
// WithDistributed hands a Session's expanded trial units to a
// Distributor — typically the unit-lease coordinator an stserve
// daemon mounts at /dist/ — instead of computing them in-process;
// the fleet writes results through the shared store, and the fold
// stays byte-identical to a local run (any unit the fleet fails to
// deliver is recomputed locally). The wire vocabulary of the lease
// protocol (UnitRange, LeaseRequest, LeaseGrant, UnitReport,
// Heartbeat) lives here for the same reason the job types do: a
// worker needs nothing but this package and net/http. Setting
// JobRequest.Remote submits a daemon job in this mode.
package st
