// Package record defines FlorDB's log and loop records — the rows of the
// Figure-1 data model — together with their JSONL wire encoding and the
// shredding of records into the relational store.
//
// Every record carries the structured provenance the paper requires:
// projid, tstamp, filename, and ctx_id (the loop context the record belongs
// to, with parent links expressing nesting).
package record

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"flordb/internal/relation"
)

// ValueType tags the dynamic type of a logged value, stored in the logs
// table's value_type column so that values can be rehydrated when a
// dataframe is built.
type ValueType int

// Value types stored in logs.value_type.
const (
	VTText ValueType = iota
	VTInt
	VTFloat
	VTBool
	VTBlobRef // value column holds a key into obj_store
)

// Kind discriminates record variants in the WAL stream.
type Kind string

// Record kinds.
const (
	KindLog    Kind = "log"
	KindLoop   Kind = "loop"
	KindCommit Kind = "commit"
	KindArg    Kind = "arg"
	KindCkpt   Kind = "ckpt"
)

// LogRecord is one flor.log(name, value) emission — a row of `logs`.
type LogRecord struct {
	Kind      Kind      `json:"kind"`
	ProjID    string    `json:"projid"`
	Tstamp    int64     `json:"tstamp"` // logical commit timestamp (version counter)
	Filename  string    `json:"filename"`
	CtxID     int64     `json:"ctx_id"`
	ValueName string    `json:"value_name"`
	Value     string    `json:"value"`
	ValueType ValueType `json:"value_type"`
	Wall      time.Time `json:"wall"` // wall-clock time of emission
}

// LoopRecord is one flor.loop iteration entry — a row of `loops`.
type LoopRecord struct {
	Kind        Kind      `json:"kind"`
	ProjID      string    `json:"projid"`
	Tstamp      int64     `json:"tstamp"`
	Filename    string    `json:"filename"`
	CtxID       int64     `json:"ctx_id"`
	ParentCtxID int64     `json:"parent_ctx_id"`
	LoopName    string    `json:"loop_name"`
	LoopIter    int64     `json:"loop_iteration"`
	IterValue   string    `json:"iteration_value"`
	Wall        time.Time `json:"wall"`
}

// ArgRecord captures a flor.arg resolution so replay can reuse historical
// hyperparameters without re-reading the command line.
type ArgRecord struct {
	Kind     Kind   `json:"kind"`
	ProjID   string `json:"projid"`
	Tstamp   int64  `json:"tstamp"`
	Filename string `json:"filename"`
	Name     string `json:"name"`
	Value    string `json:"value"`
}

// CkptRecord registers a checkpoint blob taken at a loop iteration boundary.
type CkptRecord struct {
	Kind     Kind   `json:"kind"`
	ProjID   string `json:"projid"`
	Tstamp   int64  `json:"tstamp"`
	Filename string `json:"filename"`
	CtxID    int64  `json:"ctx_id"`
	Name     string `json:"name"`     // checkpointed object name (e.g. "model")
	BlobKey  string `json:"blob_key"` // key into obj_store
}

// CommitRecord marks a flor.commit() — the end of a visible transaction.
type CommitRecord struct {
	Kind   Kind      `json:"kind"`
	ProjID string    `json:"projid"`
	Tstamp int64     `json:"tstamp"`
	VID    string    `json:"vid"` // version id produced by the vcs commit
	Wall   time.Time `json:"wall"`
}

// Encode marshals a record to one JSONL line (no trailing newline).
func Encode(rec any) ([]byte, error) {
	b, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("record: encode: %w", err)
	}
	return b, nil
}

// FormatValue renders a Go value into the logs.value text column plus its
// type tag, mirroring how the Python system stringifies logged expressions.
func FormatValue(v any) (string, ValueType) {
	switch x := v.(type) {
	case nil:
		return "", VTText
	case string:
		return x, VTText
	case bool:
		if x {
			return "true", VTBool
		}
		return "false", VTBool
	case int:
		return strconv.FormatInt(int64(x), 10), VTInt
	case int32:
		return strconv.FormatInt(int64(x), 10), VTInt
	case int64:
		return strconv.FormatInt(x, 10), VTInt
	case float32:
		return strconv.FormatFloat(float64(x), 'g', -1, 32), VTFloat
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64), VTFloat
	case fmt.Stringer:
		return x.String(), VTText
	default:
		b, err := json.Marshal(v)
		if err != nil {
			return fmt.Sprintf("%v", v), VTText
		}
		return string(b), VTText
	}
}

// ParseValue rehydrates a logs.value text payload into a relation.Value
// using its type tag.
func ParseValue(s string, vt ValueType) relation.Value {
	switch vt {
	case VTInt:
		if i, err := strconv.ParseInt(s, 10, 64); err == nil {
			return relation.Int(i)
		}
	case VTFloat:
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return relation.Float(f)
		}
	case VTBool:
		if s == "true" {
			return relation.Bool(true)
		}
		if s == "false" {
			return relation.Bool(false)
		}
	}
	return relation.Text(s)
}
