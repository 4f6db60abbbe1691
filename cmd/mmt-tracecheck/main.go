// Command mmt-tracecheck validates the repository's JSON artefacts. It
// owns no schema: every artefact is read by the strict parser that lives
// next to its writer, and this command only tells the kinds apart and
// reports what the parser says.
//
//	JSON array                  Chrome trace-event file   trace.ParseChromeTrace
//	"schema": "mmt-hist/v1"     latency histograms        trace.ParseHist
//	"schema": "mmt-events/v1"   security-event ledger     trace.ParseEvents (JSON Lines)
//	"schema": "mmt-causal/v1"   per-migration span trees  trace.ParseCausal
//	"schema": "mmt-series/v1"   windowed time series      trace.ParseSeries
//	"schema": "mmt-manifest/v1" snapshot manifest         mmt.ParseManifest
//	object without "schema"     BENCH_fig<N>.json sidecar bench.ParseSidecar
//
// Each parser rejects a key its writer does not emit, the absence of one
// it always emits, and every document that breaks an invariant the
// writer promises (see the parser's comment for the list). Exit status
// 0 means every file validated, 1 that at least one did not, 2 a usage
// error.
//
// Usage:
//
//	mmt-tracecheck trace.json BENCH_fig10.json events.jsonl ...
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"mmt"
	"mmt/internal/bench"
	"mmt/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(paths []string, stdout, stderr io.Writer) int {
	if len(paths) == 0 {
		fmt.Fprintln(stderr, "usage: mmt-tracecheck <file.json> ...")
		return 2
	}
	status := 0
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err == nil {
			err = check(data)
		}
		if err != nil {
			fmt.Fprintf(stderr, "FAIL %s: %v\n", path, err)
			status = 1
			continue
		}
		fmt.Fprintf(stdout, "ok   %s\n", path)
	}
	return status
}

// check detects the artefact kind from the JSON shape and hands the
// bytes to that kind's parser.
func check(data []byte) error {
	var err error
	switch first := bytes.TrimLeft(data, " \t\r\n"); {
	case len(first) == 0:
		return fmt.Errorf("empty file")
	case first[0] == '[':
		_, err = trace.ParseChromeTrace(data)
	case first[0] == '{':
		// The probe decodes only the first JSON value, so a JSON Lines
		// file (whose whole content is not one document) still identifies.
		var probe struct {
			Schema string `json:"schema"`
		}
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&probe); err != nil {
			return fmt.Errorf("not a JSON object: %w", err)
		}
		switch probe.Schema {
		case trace.HistSchema:
			_, err = trace.ParseHist(data)
		case trace.EventsSchema:
			_, _, err = trace.ParseEvents(data)
		case trace.CausalSchema:
			_, err = trace.ParseCausal(data)
		case trace.SeriesSchema:
			_, err = trace.ParseSeries(data)
		case "mmt-manifest/v1":
			_, err = mmt.ParseManifest(data)
		case "":
			_, err = bench.ParseSidecar(data)
		default:
			return fmt.Errorf("unknown schema %q", probe.Schema)
		}
	default:
		return fmt.Errorf("neither a JSON array (Chrome trace) nor a JSON object")
	}
	return err
}
