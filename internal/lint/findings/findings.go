// Package findings is the common currency of the ultravet CLI: a
// diagnostic from any analyzer — host-side Go analysis or guest ISA
// lint — normalized into one record, sorted into one canonical order and
// rendered as text or JSON.
package findings

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Finding is one normalized diagnostic.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col,omitempty"`
	Message  string `json:"message"`
	// Chain is the call chain a whole-program analyzer attaches
	// ("root → helper → sink"); empty for local diagnostics.
	Chain string `json:"chain,omitempty"`
}

// String renders the conventional file:line:col: analyzer: message line.
func (f Finding) String() string {
	pos := fmt.Sprintf("%s:%d", f.File, f.Line)
	if f.Col > 0 {
		pos += ":" + strconv.Itoa(f.Col)
	}
	return fmt.Sprintf("%s: %s: %s", pos, f.Analyzer, f.Message)
}

// Sort orders findings canonically: analyzer, file, line, column,
// message. Every render works on this order.
func Sort(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Message < b.Message
	})
}

// WriteJSON renders fs (canonically sorted) as an
// indented JSON array, one deterministic byte stream per finding set.
func WriteJSON(w io.Writer, fs []Finding) error {
	if fs == nil {
		fs = []Finding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(fs)
}

// WriteText renders fs one per line in the conventional format.
func WriteText(w io.Writer, fs []Finding) error {
	for _, f := range fs {
		if _, err := fmt.Fprintln(w, f); err != nil {
			return err
		}
	}
	return nil
}
