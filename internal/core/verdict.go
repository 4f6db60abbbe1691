package core

import (
	"errors"

	"mmt/internal/sim"
	"mmt/internal/trace"
)

// RecordReject writes the ledger verdict for a closure that Accept
// refused: it counts the rejection, classifies err, and files the event
// under the closure's cleartext address hint, which stays readable even
// when verification fails. who prefixes every detail string and what
// names the thing rejected ("closure" on the wire, "artifact" from a
// file). It reports the hint and whether the wire decoded far enough to
// have one — only a delegation that can be named can be nacked.
func RecordReject(probe *trace.Probe, now sim.Time, err error, wire []byte, who, what string) (hint uint64, named bool) {
	probe.Count(trace.CtrClosuresRejected, 1)
	if c, derr := DecodeClosure(wire); derr == nil {
		hint, named = c.GUAddrHint, true
	}
	subject := who
	if what != "closure" {
		subject += what + " "
	}
	// One constant event kind per verdict branch.
	switch {
	case errors.Is(err, ErrReplay):
		probe.Event(trace.EvReplayReject, now, hint, subject+"counter not fresh")
	case errors.Is(err, ErrReorder):
		probe.Event(trace.EvReorderReject, now, hint, subject+"address not monotonic")
	case errors.Is(err, ErrAuth):
		probe.Event(trace.EvAuthFail, now, hint, subject+"sealed root unauthentic")
	case errors.Is(err, ErrIntegrity):
		probe.Event(trace.EvIntegrityFail, now, hint, who+what+" contents tampered")
	default:
		probe.Event(trace.EvMigrationReject, now, hint, who+"malformed "+what)
	}
	return hint, named
}
