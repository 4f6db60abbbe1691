package trace

import (
	"fmt"
	"io"
)

// seriesDoc is the mmt-series/v1 document: the schema name ahead of the
// SeriesView, whose tags give the rest of the shape.
type seriesDoc struct {
	Schema string `json:"schema"`
	SeriesView
}

func (d *seriesDoc) Check() error {
	if d.Schema != SeriesSchema {
		return fmt.Errorf("schema is %q", d.Schema)
	}
	return d.SeriesView.Check()
}

// WriteSeriesJSON writes the sampler state as an mmt-series/v1 document.
// An error is returned when sampling is not enabled.
func (s *Sink) WriteSeriesJSON(w io.Writer) error {
	v, ok := s.SeriesSnapshot()
	if !ok {
		return errSeriesDisabled
	}
	return newEncoder(w).Encode(seriesDoc{SeriesSchema, v})
}

type seriesDisabledError struct{}

func (seriesDisabledError) Error() string { return "trace: series sampling not enabled" }

var errSeriesDisabled = seriesDisabledError{}

// ParseSeries reads an mmt-series/v1 document back into the view it was
// written from; SeriesView.Check says what it refuses.
func ParseSeries(data []byte) (SeriesView, error) {
	d, err := parseDoc[seriesDoc](SeriesSchema, data)
	if err != nil {
		return SeriesView{}, err
	}
	return d.SeriesView, nil
}
