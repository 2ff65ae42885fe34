package metrics

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// This file is the row-emission layer of the streaming scenario engine:
// a flattened per-device record and an Emitter that writes records to
// an io.Writer as CSV or JSONL the moment they arrive, so a grid run
// over millions of devices persists its rows with O(1) retained state.
// The scenario engine cannot be imported from here (it imports this
// package), so records are plain values the caller flattens from its
// own row type; cmd/experiments adapts scenario rows through this.

// RowRecord is one streamed per-device result row, flattened for
// serialization. Cell and Repeat locate the row in a grid run; Shard
// and Index are its coordinates within one scenario run (rows are
// globally ordered by (Cell, Repeat, Shard, Index)).
type RowRecord struct {
	Cell        string `json:"cell"`
	Repeat      int    `json:"repeat"`
	Shard       int    `json:"shard"`
	Index       int    `json:"index"`
	Device      string `json:"device"`
	Profile     string `json:"profile"`
	Class       Class  `json:"class"`
	Informed    bool   `json:"informed"`
	Internet    bool   `json:"internet"`
	UsedIPv6    bool   `json:"used_ipv6"`
	Churned     bool   `json:"churned,omitempty"`
	Reconverged bool   `json:"reconverged,omitempty"`
	// ConvergeMS is the re-convergence time in whole milliseconds of
	// virtual clock (0 unless Reconverged).
	ConvergeMS int64 `json:"converge_ms,omitempty"`
}

// rowHeader is the CSV column order; fields must stay in sync.
var rowHeader = []string{
	"cell", "repeat", "shard", "index", "device", "profile", "class",
	"informed", "internet", "used_ipv6", "churned", "reconverged", "converge_ms",
}

// fields renders the record in rowHeader order.
func (r RowRecord) fields() []string {
	return []string{
		r.Cell,
		strconv.Itoa(r.Repeat),
		strconv.Itoa(r.Shard),
		strconv.Itoa(r.Index),
		r.Device,
		r.Profile,
		string(r.Class),
		strconv.FormatBool(r.Informed),
		strconv.FormatBool(r.Internet),
		strconv.FormatBool(r.UsedIPv6),
		strconv.FormatBool(r.Churned),
		strconv.FormatBool(r.Reconverged),
		strconv.FormatInt(r.ConvergeMS, 10),
	}
}

// EmitFormat selects the Emitter's row encoding.
type EmitFormat int

// Supported encodings: one CSV line per row under a single header, or
// one JSON object per line.
const (
	EmitCSV EmitFormat = iota
	EmitJSONL
)

// ParseEmitFormat maps the config strings "csv" and "jsonl" to their
// formats.
func ParseEmitFormat(s string) (EmitFormat, error) {
	switch s {
	case "", "csv":
		return EmitCSV, nil
	case "jsonl":
		return EmitJSONL, nil
	}
	return 0, fmt.Errorf("metrics: unknown emit format %q (want csv or jsonl)", s)
}

// Emitter streams RowRecords to a writer. Writes are buffered; call
// Flush before reading the output. Not safe for concurrent use — the
// scenario engine already serializes sink callbacks, so one Emitter
// per run needs no extra locking.
type Emitter struct {
	w *bufio.Writer
	// csv writes RFC 4180 lines ending in \n into w's buffer.
	csv    *csv.Writer
	format EmitFormat
	wrote  bool
	err    error
	rows   int
}

// NewEmitter returns an Emitter writing rows to w in the given format.
func NewEmitter(w io.Writer, format EmitFormat) *Emitter {
	b := bufio.NewWriter(w)
	return &Emitter{w: b, csv: csv.NewWriter(b), format: format}
}

// Emit writes one record. After the first error every subsequent Emit
// is a no-op returning that error, so a sink can stay fire-and-forget
// and check Flush once at the end.
func (e *Emitter) Emit(r RowRecord) error {
	if e.err != nil {
		return e.err
	}
	switch e.format {
	case EmitCSV:
		if !e.wrote {
			e.err = e.csv.Write(rowHeader)
		}
		if e.err == nil {
			e.err = e.csv.Write(r.fields())
		}
	case EmitJSONL:
		var b []byte
		if b, e.err = json.Marshal(r); e.err == nil {
			if _, werr := e.w.Write(b); werr != nil {
				e.err = werr
			} else {
				e.err = e.w.WriteByte('\n')
			}
		}
	default:
		e.err = fmt.Errorf("metrics: unknown emit format %d", e.format)
	}
	if e.err == nil {
		e.wrote = true
		e.rows++
	}
	return e.err
}

// Rows reports how many records have been emitted successfully.
func (e *Emitter) Rows() int { return e.rows }

// Flush drains the buffer and returns the first error seen by any
// Emit or the flush itself.
func (e *Emitter) Flush() error {
	if ferr := e.w.Flush(); e.err == nil {
		e.err = ferr
	}
	return e.err
}
