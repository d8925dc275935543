package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// tracedRecoveryCycles is the traced run's recovery tail: enough for
// server.boot_recover_ms, which is not gated.
const tracedRecoveryCycles = 3

// traceBlocks is the number of blocks the traced HTTP phase alternates
// tracing off and on over, to measure what recording spans costs.
const traceBlocks = 8

// runTraced measures the per-layer metrics: the workload over HTTP at a
// fixed op count with a span around every request, then the in-process
// replay of the same inputs layer by layer. Fixed counts make the
// traced run's counts and bytes repeat exactly for a seed.
func runTraced(cfg runConfig, rec *record) error {
	tr := newTracer()
	e, err := setUp(cfg, tr)
	if err != nil {
		return err
	}
	defer e.close()
	rec.Facts = len(e.data.quads)

	nOps := cfg.count(int(cfg.spec.TracedOpsPerSecond*cfg.seconds), traceBlocks)
	block := nOps / traceBlocks
	on := make([]bool, 0, nOps)
	t0 := time.Now()
	p := e.measure(0, nOps, func(op int) {
		e.tr = nil
		if (op/block)%2 == 1 {
			e.tr = tr
		}
		on = append(on, e.tr != nil)
	})
	e.tr = tr
	rec.MeasuredS = time.Since(t0).Seconds()

	want, err := e.checkAgainstReference()
	if err != nil {
		return err
	}
	_, bootMS := e.recoveryTail(min(tracedRecoveryCycles, cfg.spec.Recoveries), want)
	// Disk bytes are taken once the tail has run: by then a cold
	// workload too holds a session (the one the tail recovers), and a
	// restart adds only an empty log segment.
	values := map[string]float64{"wal.disk_bytes_per_fact": 0}
	if e.srv.dataDir != "" {
		n, err := dirBytes(e.srv.dataDir)
		if err != nil {
			return err
		}
		values["wal.disk_bytes_per_fact"] = float64(n) / float64(e.tog.live)
	}

	rp, err := replay(cfg, e.data, tr, nOps)
	if err != nil {
		return err
	}
	for k, v := range rp.values {
		values[k] = v
	}
	for k, n := range rp.samples {
		rec.Samples[k] = n
	}

	opMS, readMS := latenciesMS(p.ops), latenciesMS(p.reads)
	var create, solve []float64
	for _, s := range tr.spans {
		switch s.Name {
		case "server.create":
			create = append(create, ms(s.dur()))
		case "server.solve":
			solve = append(solve, ms(s.dur()))
		}
	}
	values["server.create_p50_ms"] = percentile(create, 50)
	values["server.solve_p50_ms"] = percentile(solve, 50)
	values["server.overhead_p50_ms"] = percentile(opMS, 50) - percentile(rp.opMS, 50)
	values["server.response_bytes_p50"] = percentile(e.respBytes, 50)
	opTail, readTail := tailOf(opMS), tailOf(readMS)
	rec.Tails["op_tail_ms"], rec.Tails["read_tail_ms"] = opTail, readTail
	values["server.op_tail_ms"] = opTail.MS
	values["server.read_tail_ms"] = readTail.MS
	values["server.rejected_429"] = float64(e.tal.rejected429)
	values["server.boot_recover_ms"] = median(bootMS)
	values["server.reader_lateness_p50_ms"] = percentile(p.lateMS, 50)
	values["server.trace_overhead_pct"] = 0
	if len(p.ops) == len(on) {
		var with, without []float64
		for i, ms := range opMS {
			if on[i] {
				with = append(with, ms)
			} else {
				without = append(without, ms)
			}
		}
		if base := percentile(without, 50); base > 0 {
			values["server.trace_overhead_pct"] = 100 * (percentile(with, 50) - base) / base
		}
	}
	rec.Samples["server.create_p50_ms"] = len(create)
	rec.Samples["server.solve_p50_ms"] = len(solve)
	rec.Samples["server.overhead_p50_ms"] = len(opMS)
	rec.Samples["server.boot_recover_ms"] = len(bootMS)

	// The waterfall: the replayed op's layers, per op, then what the
	// same op took longer over HTTP as the server's row. Shares are of
	// the HTTP op's mean wall time.
	rows, _ := tr.waterfall(rp.opsRoot)
	httpMS := mean(opMS)
	rows = append(rows, waterfallRow{Layer: "server", MS: httpMS - mean(rp.opMS)})
	for i := range rows {
		rows[i].Share = rows[i].MS / httpMS
		if l := rows[i].Layer; l != "unattributed" && l != "server" {
			rec.AttributedPct += 100 * rows[i].Share
		}
	}
	rec.Waterfall = rows

	rec.SpansFile = filepath.Join(filepath.Dir(cfg.serverBin), fmt.Sprintf("trace-%s.json", cfg.spec.Name))
	if err := tr.writeFile(rec.SpansFile); err != nil {
		return err
	}
	return rec.finish(perLayer, values, e.tal)
}
