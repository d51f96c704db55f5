// Machine-readable report output: eabench exec -json. The JSON
// mirrors the Format() tables — same rows, same quantities — with enum
// fields rendered as their String() forms so downstream tooling never
// depends on internal constant values.
package experiments

import (
	"encoding/json"
	"io"
)

// WriteJSON writes the execution report as indented JSON.
func (r *ExecReport) WriteJSON(w io.Writer) error {
	out := struct {
		Mode        string             `json:"mode"`
		Factor      float64            `json:"factor"`
		Workers     int                `json:"workers"`
		Phys        string             `json:"phys"`
		AllMatch    bool               `json:"all_match"`
		CanonMillis map[string]float64 `json:"canon_millis"`
		Rows        []ExecRow          `json:"rows"`
	}{
		Mode:        "exec",
		Factor:      r.Factor,
		Workers:     r.Workers,
		Phys:        r.Phys.String(),
		AllMatch:    r.AllMatch(),
		CanonMillis: r.CanonMillis,
		Rows:        r.Rows,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// WriteJSON writes the feedback report as indented JSON.
func (r *FeedbackReport) WriteJSON(w io.Writer) error {
	out := struct {
		Mode     string        `json:"mode"`
		Factor   float64       `json:"factor"`
		Workers  int           `json:"workers"`
		AllMatch bool          `json:"all_match"`
		Rows     []FeedbackRow `json:"rows"`
	}{
		Mode:     "feedback",
		Factor:   r.Factor,
		Workers:  r.Workers,
		AllMatch: r.AllMatch(),
		Rows:     r.Rows,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
