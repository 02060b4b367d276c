package main

import "repro/internal/span"

// perLayer computes the per-layer metrics of a traced run from its spans,
// its traced window's outcomes and its probe; plain is the same window
// untraced. Each layer is measured where the workload loads it (see
// spanSet.pick).
func perLayer(s *spanSet, plain, w windowResult, p probeResult, sums simTotals) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	med := func(rs []spanRec) float64 { return quantile(secs(rs), 0.5) }

	put("tracing.overhead", ratio(throughput(plain), throughput(w))-1, "ratio")

	put("workload.build_s", med(s.named("workload.ByName", "probe")), "s")
	put("workload.builds", float64(len(s.named("trace.generate", "setup", "window"))), "count")
	gens := s.pick("trace.generate")
	put("prog.execute_s", med(gens), "s")
	put("prog.uops_per_s", ratio(float64(opsPerRequest*len(gens)), sum(secs(gens))), "uops/s")

	imports := s.pick("ballerino.ImportTrace")
	var mb float64
	for _, r := range imports {
		mb += float64(r.attrInt("bytes")) / (1 << 20)
	}
	put("tracefile.import_s", med(imports), "s")
	put("tracefile.import_mb_per_s", ratio(mb, sum(secs(imports))), "MB/s")
	put("tracefile.export_s", med(s.pick("ballerino.ExportTrace")), "s")

	var hits, misses float64
	for _, r := range s.named("cache.lookup", "window") {
		if r.Attr("outcome") == "miss" {
			misses++
		} else {
			hits++
		}
	}
	put("campaign.cache_hits", hits, "count")
	put("campaign.cache_misses", misses, "count")

	// The glue around a simulation whose trace was supplied: the self time
	// of RunContext given a replayed trace, of a sweep point's RunAll, or
	// of a served attempt.
	var glue []float64
	for _, r := range s.all {
		if r.phase == "window" && (r.Name == "ballerino.RunContext" && r.Attr("trace") == "supplied" ||
			r.Name == "ballerino.RunAll" || r.server && r.Name == "attempt") {
			glue = append(glue, selfTime(r).Seconds())
		}
	}
	put("ballerino.run_self_s", quantile(glue, 0.5), "s")

	put("pipeline.run_s", med(s.named("sim.run", "window")), "s")
	type loop struct{ uops, cycles, secs float64 }
	per := map[string]*loop{}
	for _, d := range designs {
		per[d] = &loop{}
	}
	for _, o := range w.outs {
		if d := s.simRun(o); !o.failed() && d > 0 && per[o.design] != nil {
			per[o.design].uops += float64(o.committed)
			per[o.design].cycles += float64(o.cycles)
			per[o.design].secs += d.Seconds()
		}
	}
	for _, d := range designs {
		put("pipeline.uops_per_s."+d, ratio(per[d].uops, per[d].secs), "uops/s")
		put("pipeline.cycles_per_s."+d, ratio(per[d].cycles, per[d].secs), "cycles/s")
	}
	put("sim.cycles", float64(sums.cycles), "count")
	put("sim.committed", float64(sums.committed), "count")
	put("sim.ipc", sums.ipc(), "uops/cycle")

	// On the served workload the recorder's cost is the served job's own
	// sim.run against a plain RunContext of the same configuration.
	var base, rec, td, events, committed float64
	for _, pr := range p.runs {
		base += pr.plain.Seconds()
		td += pr.td.Seconds()
		if pr.o.jobID != 0 {
			rec += s.simRun(pr.o).Seconds()
		} else {
			rec += pr.rec.Seconds()
		}
		events += float64(pr.events)
		committed += float64(pr.committed)
	}
	put("obs.events_per_uop", ratio(events, committed), "events/uop")
	put("obs.recorder_overhead", ratio(rec, base)-1, "ratio")
	put("topdown.overhead", ratio(td, base)-1, "ratio")

	put("telemetry.submit_s", med(s.pick("POST /jobs")), "s")
	put("telemetry.queue_wait_s", med(s.pick("queue.wait")), "s")
	var self []float64
	for _, j := range s.pick("job") {
		var phases []span.View
		ran := false
		for _, v := range descendants(j.tree, j.ID) {
			switch v.Name {
			case "attempt":
				ran = true
			case "cache.lookup", "trace.generate", "sim.warmup", "sim.run":
				phases = append(phases, v)
			}
		}
		if ran && !j.Open {
			self = append(self, (j.Duration() - coverage(phases, j.Start, j.End)).Seconds())
		}
	}
	put("telemetry.self_s", quantile(self, 0.5), "s")
	var lag []float64
	for _, a := range s.pick("await") {
		if tr := s.jobs[int(a.attrInt("job"))]; tr != nil {
			if root, ok := tr.Find("job"); ok && !root.Open {
				lag = append(lag, a.End.Sub(root.End).Seconds())
			}
		}
	}
	put("telemetry.notify_lag_s", quantile(lag, 0.5), "s")
	scrapes := s.pick("GET /metrics")
	var sizes []float64
	for _, r := range scrapes {
		sizes = append(sizes, float64(r.attrInt("bytes")))
	}
	put("telemetry.scrape_s", med(scrapes), "s")
	put("telemetry.scrape_bytes", quantile(sizes, 0.5), "bytes")

	appends := s.pick("wal.append")
	put("jobstore.fsync_s", med(appends), "s")
	put("jobstore.appends", float64(len(appends)), "count")
	storeHits, servedOps := 0, 0
	for _, o := range w.outs {
		if o.jobID != 0 {
			servedOps++
		}
		if o.fromStore {
			storeHits++
		}
	}
	if servedOps == 0 {
		storeHits = p.storeHits
	}
	put("jobstore.store_hits", float64(storeHits), "count")
	return m
}
