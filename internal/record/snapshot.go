// Snapshot codec: a versioned, checksummed binary serialization of the base
// tables, stamped with the WAL segment sequence it covers. Recovery loads
// the newest valid snapshot and replays only the WAL tail, making startup
// O(live data) instead of O(total history) — the metadata-side analog of the
// paper's checkpoint/replay design for training state (§2).
//
// Two formats share the FLORSNAP container (magic, JSON meta, CRC-32C
// trailer) and are dispatched on the meta version field:
//
//   - v3 (current, columnar): per-column pages with zone maps in a page
//     directory; see snapshot_columnar.go for the layout.
//   - v2 (legacy, row-oriented): read-only, for compatibility with
//     pre-columnar snapshots. Compaction prunes the WAL segments a snapshot
//     covers, so a project whose newest snapshot is v2 needs this reader to
//     open at all.
//
// v2 layout (all integers varint-encoded unless noted):
//
//	magic "FLORSNAP"
//	uvarint meta length, meta JSON {"version","seq","max_tstamp",
//	    "epoch","min_epoch","epochs"}
//	string dictionary: uvarint count, then per entry uvarint len + bytes
//	per base table, in Tables order (logs, loops, ts2vid, obj_store, args):
//	    uvarint name length, name
//	    uvarint version count
//	    versions: zigzag varint born epoch, zigzag varint dead epoch
//	        (0 = live), then per column one tag byte + payload
//	        'N' NULL    'i' zigzag varint    'f' 8-byte LE float bits
//	        's' uvarint dictionary index     'b'/'B' bool false/true
//	        't' varint UnixNano              'x' uvarint len + blob bytes
//	4-byte LE CRC-32C (Castagnoli, hardware-accelerated) of everything above
//
// Format v2 persists full MVCC history: every row version carries its
// born/dead epochs, so a recovered database answers `AS OF <epoch>` queries
// exactly as the one that wrote the snapshot did. Versions tombstoned at or
// below the retention floor (meta min_epoch) are folded out at write time —
// this is how the epoch-retention GC's reclamation becomes durable.
//
// The codec is deliberately not JSONL: decoding a snapshot row costs a type
// switch and a varint, not two reflective json.Unmarshal calls. Text cells
// are dictionary-encoded — metadata columns (projid, filename, value names,
// stringified values) repeat heavily, so each distinct string is stored,
// allocated, and hashed exactly once; a cell decode is a slice index. This
// is where the ≥10× recovery speedup over full WAL replay comes from (C11).
package record

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"flordb/internal/relation"
)

// SnapshotVersion is the current snapshot format version. Readers accept the
// current version and v2 (recovery falls back to an older snapshot or a full
// replay on anything else). Version 2 added per-version born/dead epochs and
// the epoch/min_epoch/epochs meta fields for time travel; version 3 moved the
// table sections to columnar pages with zone maps (snapshot_columnar.go).
const SnapshotVersion = 3

const snapshotMagic = "FLORSNAP"

// EpochStamp maps one committed epoch to the wall-clock time of the commit
// that published it. The ordered list of stamps is the persisted
// epoch↔timestamp map that `AS OF TIMESTAMP` resolution binary-searches.
type EpochStamp struct {
	Epoch int64 `json:"e"`
	Wall  int64 `json:"w"` // commit wall clock, Unix nanoseconds UTC
}

// SnapshotMeta stamps a snapshot with what it covers.
type SnapshotMeta struct {
	Version   int   `json:"version"`
	Seq       int64 `json:"seq"`        // highest sealed WAL segment folded in
	MaxTstamp int64 `json:"max_tstamp"` // highest logical timestamp covered
	Epoch     int64 `json:"epoch"`      // committed epoch folded in (commit records since birth)
	MinEpoch  int64 `json:"min_epoch,omitempty"`
	// Epochs is the epoch↔commit-wall-clock map for epochs in
	// [MinEpoch, Epoch], ascending. Tail replay extends it.
	Epochs []EpochStamp `json:"epochs,omitempty"`
}

// snapshotTables returns the base tables in their fixed serialization order.
func (t *Tables) snapshotTables() []*relation.Table {
	return []*relation.Table{t.Logs, t.Loops, t.Ts2vid, t.ObjStore, t.Args}
}

// castagnoli is the CRC-32C table; Castagnoli is hardware-accelerated on
// amd64/arm64, which matters when checksumming a multi-MB snapshot on the
// recovery hot path.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// snapDict assigns dense ids to distinct strings in first-use order.
type snapDict struct {
	ids     map[string]uint64
	entries []string
}

func (d *snapDict) id(s string) uint64 {
	if id, ok := d.ids[s]; ok {
		return id
	}
	id := uint64(len(d.entries))
	d.ids[s] = id
	d.entries = append(d.entries, s)
	return id
}

// WriteSnapshot serializes the tables to w in the current columnar format.
// The caller owns durability (buffering, fsync, atomic rename).
func WriteSnapshot(w io.Writer, meta SnapshotMeta, t *Tables) error {
	return WriteSnapshotHook(w, meta, t, nil)
}

// WriteSnapshotHook is WriteSnapshot with a test hook fired after each table
// section reaches w — the crash-injection matrix uses it to kill the process
// mid-file and prove recovery falls back cleanly.
func WriteSnapshotHook(w io.Writer, meta SnapshotMeta, t *Tables, hook func(table string) error) error {
	return writeSnapshotV3(w, meta, t, hook)
}

// snapPersists reports whether a row version belongs in a snapshot with the
// given retention floor: it must have a payload (not reclaimed in memory) and
// must still be visible at some epoch >= floor.
func snapPersists(r relation.Row, dead, minEpoch int64) bool {
	return r != nil && (dead == 0 || dead > minEpoch)
}

// ReadSnapshot verifies and decodes a snapshot, then bulk-loads the rows
// into t (which must hold empty tables, as fresh from CreateTables; indexes
// are rebuilt during the load). On any error the tables are left untouched:
// the checksum and the full decode happen before the first insert, so a
// corrupt snapshot is safe to fall back from.
func ReadSnapshot(data []byte, t *Tables) (SnapshotMeta, error) {
	var meta SnapshotMeta
	if len(data) < len(snapshotMagic)+4 {
		return meta, errors.New("record: snapshot truncated")
	}
	if string(data[:len(snapshotMagic)]) != snapshotMagic {
		return meta, errors.New("record: bad snapshot magic")
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(trailer) {
		return meta, errors.New("record: snapshot checksum mismatch")
	}
	rd := &snapReader{buf: body[len(snapshotMagic):]}
	metaJSON := rd.bytes(int(rd.uvarint()))
	if rd.err != nil {
		return meta, rd.err
	}
	if err := json.Unmarshal(metaJSON, &meta); err != nil {
		return meta, fmt.Errorf("record: snapshot meta: %w", err)
	}
	switch meta.Version {
	case 2:
		return meta, readSnapshotV2(rd, t)
	case SnapshotVersion:
		return meta, readSnapshotV3(rd, t)
	default:
		return meta, fmt.Errorf("record: unsupported snapshot version %d", meta.Version)
	}
}

// readSnapshotV2 decodes the legacy row-oriented table sections.
func readSnapshotV2(rd *snapReader, t *Tables) error {
	// Resolve the string dictionary: each distinct string is allocated once
	// here; a text cell decode below is a bounds-checked slice index.
	nDict := int(rd.uvarint())
	if rd.err != nil || nDict < 0 || nDict > len(rd.buf) {
		return errors.New("record: snapshot dictionary out of range")
	}
	dict := make([]string, nDict)
	for i := range dict {
		dict[i] = string(rd.bytes(int(rd.uvarint())))
	}
	if rd.err != nil {
		return rd.err
	}

	tbls := t.snapshotTables()
	batches := make([][]relation.Row, len(tbls))
	borns := make([][]int64, len(tbls))
	deads := make([][]int64, len(tbls))
	for i, tbl := range tbls {
		name := string(rd.bytes(int(rd.uvarint())))
		if rd.err != nil {
			return rd.err
		}
		if name != tbl.Name() {
			return fmt.Errorf("record: snapshot table %q, want %q", name, tbl.Name())
		}
		n := int(rd.uvarint())
		width := tbl.Schema().Len()
		// Every cell costs at least one byte, so n cannot exceed
		// len(buf)/width in a valid snapshot (divide — the product n*width
		// could overflow int on a crafted count and panic make below; the
		// born/dead prefixes only make each version cost more).
		if rd.err != nil || n < 0 || width <= 0 || n > len(rd.buf)/width {
			return errors.New("record: snapshot row count out of range")
		}
		rows := make([]relation.Row, n)
		born := make([]int64, n)
		dead := make([]int64, n)
		cells := make([]relation.Value, n*width)
		schema := tbl.Schema()
		for j := range rows {
			born[j] = rd.varint()
			dead[j] = rd.varint()
			if rd.err == nil && (born[j] < 0 || dead[j] < 0 || (dead[j] != 0 && dead[j] < born[j])) {
				return fmt.Errorf("record: snapshot %s row %d: bad epochs born=%d dead=%d", name, j, born[j], dead[j])
			}
			row := cells[j*width : (j+1)*width : (j+1)*width]
			for k := range row {
				rd.valueInto(&row[k], dict)
				// The CRC protects against corruption, not against a
				// mis-typed writer: reject wrong-typed cells here so a bad
				// snapshot fails recovery cleanly (and falls back) instead
				// of panicking later at query time.
				if err := checkSnapCell(schema, k, &row[k], rd, name, j); err != nil {
					return err
				}
			}
			rows[j] = relation.Row(row)
		}
		if rd.err != nil {
			return rd.err
		}
		batches[i], borns[i], deads[i] = rows, born, dead
	}
	if len(rd.buf) != 0 {
		return errors.New("record: trailing bytes after snapshot tables")
	}
	for i, tbl := range tbls {
		if err := tbl.LoadVersions(batches[i], borns[i], deads[i]); err != nil {
			return err
		}
	}
	return nil
}

// checkSnapCell validates a decoded cell against the schema column: type must
// match and NOT NULL must hold. Decode errors already latched in rd win.
func checkSnapCell(schema *relation.Schema, k int, v *relation.Value, rd *snapReader, table string, row int) error {
	if rd.err != nil {
		return nil // the latched decode error is reported by the caller
	}
	col := schema.Col(k)
	if v.IsNull() {
		if col.NotNull {
			return fmt.Errorf("record: snapshot %s row %d: NULL in NOT NULL column %q", table, row, col.Name)
		}
		return nil
	}
	if v.Type() != col.Type {
		return fmt.Errorf("record: snapshot %s row %d: column %q holds %v, want %v", table, row, col.Name, v.Type(), col.Type)
	}
	return nil
}

// snapReader is an error-latching cursor over the snapshot body.
type snapReader struct {
	buf []byte
	err error
}

func (rd *snapReader) fail(msg string) {
	if rd.err == nil {
		rd.err = errors.New("record: " + msg)
	}
}

func (rd *snapReader) uvarint() uint64 {
	if rd.err != nil {
		return 0
	}
	v, n := binary.Uvarint(rd.buf)
	if n <= 0 {
		rd.fail("snapshot: bad uvarint")
		return 0
	}
	rd.buf = rd.buf[n:]
	return v
}

func (rd *snapReader) varint() int64 {
	if rd.err != nil {
		return 0
	}
	v, n := binary.Varint(rd.buf)
	if n <= 0 {
		rd.fail("snapshot: bad varint")
		return 0
	}
	rd.buf = rd.buf[n:]
	return v
}

func (rd *snapReader) bytes(n int) []byte {
	if rd.err != nil {
		return nil
	}
	if n < 0 || n > len(rd.buf) {
		rd.fail("snapshot: length out of range")
		return nil
	}
	b := rd.buf[:n]
	rd.buf = rd.buf[n:]
	return b
}

// valueInto decodes one cell directly into dst (which is zero, i.e. NULL),
// avoiding a 56-byte Value copy per cell on the recovery hot path.
func (rd *snapReader) valueInto(dst *relation.Value, dict []string) {
	if rd.err != nil {
		return
	}
	if len(rd.buf) == 0 {
		rd.fail("snapshot: truncated value")
		return
	}
	tag := rd.buf[0]
	rd.buf = rd.buf[1:]
	switch tag {
	case 'N':
	case 'i':
		*dst = relation.Int(rd.varint())
	case 's':
		idx := rd.uvarint()
		if rd.err != nil {
			return
		}
		if idx >= uint64(len(dict)) {
			rd.fail("snapshot: string index out of range")
			return
		}
		*dst = relation.Text(dict[idx])
	case 'f':
		b := rd.bytes(8)
		if rd.err != nil {
			return
		}
		*dst = relation.Float(math.Float64frombits(binary.LittleEndian.Uint64(b)))
	case 'b':
		*dst = relation.Bool(false)
	case 'B':
		*dst = relation.Bool(true)
	case 't':
		*dst = relation.Time(time.Unix(0, rd.varint()).UTC())
	case 'x':
		b := rd.bytes(int(rd.uvarint()))
		if rd.err != nil {
			return
		}
		*dst = relation.Blob(append([]byte(nil), b...))
	default:
		rd.fail(fmt.Sprintf("snapshot: unknown value tag %q", tag))
	}
}
