package trace

import (
	"fmt"
	"io"
)

// CausalSchema identifies the causal-trace export format.
const CausalSchema = "mmt-causal/v1"

// CausalDoc is the mmt-causal/v1 document: the sink's causal traces in
// (root process, sequence) order, each with its spans in span-ID order.
type CausalDoc struct {
	Schema string        `json:"schema"`
	Traces []CausalTrace `json:"traces"`
}

// WriteCausalJSON writes the sink's mmt-causal/v1 document. Safe on a nil
// sink (an empty traces list).
func (s *Sink) WriteCausalJSON(w io.Writer) error {
	return newEncoder(w).Encode(s.causalDoc())
}

func (s *Sink) causalDoc() *CausalDoc {
	return &CausalDoc{Schema: CausalSchema, Traces: append([]CausalTrace{}, s.CausalTraces()...)}
}

// ParseCausal reads an mmt-causal/v1 document; CausalDoc.Check says what
// it refuses.
func ParseCausal(data []byte) (*CausalDoc, error) { return parseDoc[CausalDoc](CausalSchema, data) }

// Check holds every trace to CausalTrace.Check.
func (d *CausalDoc) Check() error {
	if d.Schema != CausalSchema {
		return fmt.Errorf("schema is %q", d.Schema)
	}
	for i := range d.Traces {
		if err := d.Traces[i].Check(); err != nil {
			return err
		}
	}
	return nil
}
