package main

import (
	"fmt"
	"os"
)

// endToEnd and perLayer are the metric names and units the result
// line carries; BENCHMARK.json lists the same (a test keeps the two in
// step). Every workload reports every name. A per-layer metric a
// workload does not exercise reads 0; README.md says which.
var endToEnd = map[string]string{
	"setup_s":     "s",
	"units_per_s": "1/s",
	"job_ms_p50":  "ms",
	"job_ms_p99":  "ms",
	"rss_peak_mb": "MB",
}

var perLayer = func() map[string]string {
	m := map[string]string{
		"experiments.units_computed": "count",
		"campaign.store.get_us":      "us",
		"campaign.store.gets":        "count",
		"campaign.store.put_us":      "us",
		"campaign.store.puts":        "count",
		"campaign.store.put_failed":  "count",
		"campaign.store.hit_share":   "ratio",
		"campaign.entry_bytes":       "B",
		"campaign.runs":              "count",
		"campaign.expand_ms":         "ms",
		"campaign.fold_ms":           "ms",
		"campaign.engine_self_ms":    "ms",
		"runner.worker_idle_share":   "ratio",
		"runner.dispatch_wait_us":    "us",
		"st.session_ms":              "ms",
		"st.render_ms":               "ms",
		"serve.submit_ms":            "ms",
		"serve.first_event_ms":       "ms",
		"serve.stream_ms":            "ms",
		"serve.events_per_job":       "count",
		"serve.result_ms":            "ms",
		"serve.rejected":             "count",
		"loadgen.late_ms_p99":        "ms",
		"loadgen.sent":               "count",
		"trace.overhead_pct":         "%",
		"cpu.samples":                "count",
	}
	for _, e := range append(append([]string(nil), paperExps...), scenarioLoad.exps...) {
		m["experiments.unit_ms."+e] = "ms"
	}
	for _, name := range cpuMetricNames() {
		m[name] = "%"
	}
	return m
}()

// withLayerDefaults completes a traced run's metrics: every per-layer
// name is present, absent ones read 0. A name outside the list is a
// bug here and is reported.
func withLayerDefaults(m map[string]metric) map[string]metric {
	for name, v := range m {
		unit, ok := perLayer[name]
		if !ok || unit != v.Unit {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s (%s) is not in the per-layer list\n", name, v.Unit)
			delete(m, name)
		}
	}
	for name, unit := range perLayer {
		if _, ok := m[name]; !ok {
			m[name] = metric{0, unit}
		}
	}
	return m
}
