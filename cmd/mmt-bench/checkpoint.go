package main

// Experiment checkpointing: -checkpoint <dir> journals every finished
// experiment (name + rendered output) into an mmt-store/v1 two-file
// store, committing after each one; -resume skips experiments the store
// already holds and reprints their stored output byte-identically. A
// crash mid-run therefore loses at most the experiment in flight — the
// same crash-consistency protocol the cluster checkpoints use, applied
// to a long evaluation sweep.

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"mmt/internal/cursor"
	"mmt/internal/store"
)

// recExperiment is the record type for one completed experiment (the
// snapshot record types 1-5 are reserved by internal/snap).
const recExperiment store.RecordType = 16

// benchStore accumulates completed experiments over an mmt-store/v1 log.
type benchStore struct {
	st    *store.Store
	done  map[string]string // name -> rendered output
	order []string          // completion order, for the commit hash
}

// openBenchStore opens (or creates) the checkpoint store. With resume
// the committed experiments are loaded for skipping; without it a store
// that already holds results is refused so two sweeps cannot silently
// interleave.
func openBenchStore(dir string, resume bool) (*benchStore, error) {
	st, err := store.Open(store.Dir{Path: dir})
	if err != nil {
		return nil, err
	}
	b := &benchStore{st: st, done: map[string]string{}}
	if !st.HasCommit() {
		return b, nil
	}
	if !resume {
		st.Close()
		return nil, fmt.Errorf("checkpoint store %q already holds committed results (epoch %d); pass -resume to continue it", dir, st.Epoch())
	}
	recs, err := st.CommittedRecords()
	if err != nil {
		st.Close()
		return nil, err
	}
	for i, r := range recs {
		if r.Type != recExperiment {
			st.Close()
			return nil, fmt.Errorf("checkpoint store %q record %d has unexpected type %d", dir, i, r.Type)
		}
		name, out, err := decodeExperimentRec(r.Payload)
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("checkpoint store %q record %d: %w", dir, i, err)
		}
		if _, dup := b.done[name]; !dup {
			b.order = append(b.order, name)
		}
		b.done[name] = out
	}
	return b, nil
}

// resumed returns the stored output for name, if the experiment already
// completed in a previous run.
func (b *benchStore) resumed(name string) (string, bool) {
	out, ok := b.done[name]
	return out, ok
}

// complete journals one finished experiment and commits: after this
// returns, the result is durable.
func (b *benchStore) complete(name, output string) error {
	if err := b.st.Append(store.Record{Type: recExperiment, Payload: encodeExperimentRec(name, output)}); err != nil {
		return err
	}
	if _, dup := b.done[name]; !dup {
		b.order = append(b.order, name)
	}
	b.done[name] = output
	_, err := b.st.Commit(b.hash())
	return err
}

func (b *benchStore) close() error { return b.st.Close() }

// hash pins the commit to the full completed-result set, in completion
// order — reopening verifies the log replays to exactly this state.
func (b *benchStore) hash() [32]byte {
	h := sha256.New()
	for _, name := range b.order {
		h.Write(encodeExperimentRec(name, b.done[name]))
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

var errBadExperimentRec = errors.New("malformed experiment record")

// experimentLayout is a recExperiment payload in both directions: the
// experiment's name, then its rendered output.
func experimentLayout(c *cursor.Codec, name, output *string) {
	c.String(name)
	c.String(output)
}

func encodeExperimentRec(name, output string) []byte {
	c := cursor.Encoder(8 + len(name) + len(output))
	experimentLayout(c, &name, &output)
	return c.W.Buf
}

func decodeExperimentRec(p []byte) (name, output string, err error) {
	c := cursor.Decoder(p, errBadExperimentRec)
	experimentLayout(c, &name, &output)
	return name, output, c.R.Done()
}
