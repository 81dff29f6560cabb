package record

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

// referenceDecode is the encoding/json decoder Decode replaced: peek at the
// kind, then unmarshal the whole line into that record type. Decode must
// reject every line it rejects and agree with it wherever both accept.
func referenceDecode(line []byte) (any, error) {
	var env struct {
		Kind Kind `json:"kind"`
	}
	if err := json.Unmarshal(line, &env); err != nil {
		return nil, fmt.Errorf("record: bad envelope: %w", err)
	}
	var rec any
	switch env.Kind {
	case KindLog:
		rec = &LogRecord{}
	case KindLoop:
		rec = &LoopRecord{}
	case KindArg:
		rec = &ArgRecord{}
	case KindCkpt:
		rec = &CkptRecord{}
	case KindCommit:
		rec = &CommitRecord{}
	default:
		return nil, fmt.Errorf("record: unknown kind %q", env.Kind)
	}
	if err := json.Unmarshal(line, rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// checkAgainstReference applies the decode contract to one line: if Decode
// accepts it, the reference accepts it with an equal record; if the
// reference rejects it, so does Decode.
func checkAgainstReference(t *testing.T, line []byte) {
	t.Helper()
	got, err := Decode(line)
	want, refErr := referenceDecode(line)
	switch {
	case err == nil && refErr != nil:
		t.Fatalf("Decode accepted a line the reference rejects (%v):\n%q", refErr, line)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("Decode and the reference disagree on\n%q\nDecode:    %#v\nreference: %#v", line, got, want)
	}
}

// adversarialStrings are values that exercise every branch of JSON string
// encoding: escapes, HTML-escaped bytes, line separators, invalid UTF-8,
// control bytes and long values.
var adversarialStrings = []string{
	"",
	"plain",
	`quote " backslash \ slash /`,
	"\b\f\n\r\t",
	"<script>&amp;</script>",
	"  and  ",
	"\x00\x01\x1f\x7f",
	"bad \xff utf8 \xc3",
	"\xed\xa0\x80", // a surrogate encoded as UTF-8 is invalid
	"é ü 中文 🙂",
	"�",
	strings.Repeat("long value ", 500),
}

func randString(rng *rand.Rand) string {
	if rng.Intn(3) == 0 {
		return adversarialStrings[rng.Intn(len(adversarialStrings))]
	}
	b := make([]byte, rng.Intn(40))
	for i := range b {
		switch rng.Intn(4) {
		case 0:
			b[i] = byte(rng.Intn(256))
		case 1:
			b[i] = byte(rng.Intn(0x20))
		default:
			b[i] = byte(' ' + rng.Intn(0x5f))
		}
	}
	s := string(b)
	if rng.Intn(4) == 0 {
		s += string(rune(rng.Intn(utf8.MaxRune + 1)))
	}
	return s
}

var int64Extremes = []int64{0, 1, -1, 9, 10, -10, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1, math.MaxInt32, math.MinInt32}

func randInt(rng *rand.Rand) int64 {
	if rng.Intn(2) == 0 {
		return int64Extremes[rng.Intn(len(int64Extremes))]
	}
	return rng.Int63() >> rng.Intn(63) * int64(1-2*rng.Intn(2))
}

// randWall covers the zero time, UTC, and fixed offsets, at nanosecond
// precision anywhere in the years RFC 3339 can write.
func randWall(rng *rand.Rand) time.Time {
	switch rng.Intn(4) {
	case 0:
		return time.Time{}
	case 1:
		return time.Unix(rng.Int63n(1<<35), rng.Int63n(1e9)).UTC()
	}
	lo := time.Date(0, 1, 2, 0, 0, 0, 0, time.UTC).Unix()
	hi := time.Date(9999, 12, 30, 0, 0, 0, 0, time.UTC).Unix()
	zone := time.FixedZone("", (rng.Intn(48*60-1)-(24*60-1))*60)
	return time.Unix(lo+rng.Int63n(hi-lo), rng.Int63n(1e9)).In(zone)
}

func randRecord(rng *rand.Rand) any {
	switch rng.Intn(5) {
	case 0:
		return &LogRecord{Kind: KindLog, ProjID: randString(rng), Tstamp: randInt(rng), Filename: randString(rng), CtxID: randInt(rng), ValueName: randString(rng), Value: randString(rng), ValueType: ValueType(randInt(rng)), Wall: randWall(rng)}
	case 1:
		return &LoopRecord{Kind: KindLoop, ProjID: randString(rng), Tstamp: randInt(rng), Filename: randString(rng), CtxID: randInt(rng), ParentCtxID: randInt(rng), LoopName: randString(rng), LoopIter: randInt(rng), IterValue: randString(rng), Wall: randWall(rng)}
	case 2:
		return &ArgRecord{Kind: KindArg, ProjID: randString(rng), Tstamp: randInt(rng), Filename: randString(rng), Name: randString(rng), Value: randString(rng)}
	case 3:
		return &CkptRecord{Kind: KindCkpt, ProjID: randString(rng), Tstamp: randInt(rng), Filename: randString(rng), CtxID: randInt(rng), Name: randString(rng), BlobKey: randString(rng)}
	default:
		return &CommitRecord{Kind: KindCommit, ProjID: randString(rng), Tstamp: randInt(rng), VID: randString(rng), Wall: randWall(rng)}
	}
}

// encoded returns what a record reads back as after Encode: each byte of
// invalid UTF-8 becomes U+FFFD, and wall keeps its instant and offset but
// not its zone name.
func encoded(t *testing.T, rec any) any {
	t.Helper()
	v := reflect.ValueOf(rec).Elem()
	out := reflect.New(v.Type())
	out.Elem().Set(v)
	for i := 0; i < v.NumField(); i++ {
		f := out.Elem().Field(i)
		switch x := f.Interface().(type) {
		case string:
			var b []byte
			for _, r := range x {
				b = utf8.AppendRune(b, r)
			}
			f.SetString(string(b))
		case time.Time:
			var back time.Time
			if err := back.UnmarshalJSON([]byte(x.Format(`"` + time.RFC3339Nano + `"`))); err != nil {
				t.Fatal(err)
			}
			f.Set(reflect.ValueOf(back))
		}
	}
	return out.Interface()
}

// TestDecodeEncodedRecordsProperty runs Encode → Decode over seeded random
// records of every kind and checks each decodes to the record encoded and
// agrees with the reference decoder.
func TestDecodeEncodedRecordsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 5000; i++ {
		rec := randRecord(rng)
		line, err := Encode(rec)
		if err != nil {
			t.Fatalf("encode %#v: %v", rec, err)
		}
		got, err := Decode(line)
		if err != nil {
			t.Fatalf("decode %q: %v", line, err)
		}
		if want := encoded(t, rec); !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip of\n%q\ngot  %#v\nwant %#v", line, got, want)
		}
		checkAgainstReference(t, line)
	}
}

// TestDecodeContract pins lines at the edges of the accept set: each must
// satisfy the contract against the reference, and accept or reject as
// listed.
func TestDecodeContract(t *testing.T) {
	const commit = `{"kind":"commit","projid":"p","tstamp":4,"vid":"v4","wall":"1970-01-01T00:01:42Z"}`
	cases := []struct {
		line   string
		accept bool
	}{
		{commit, true},
		{`{"kind":"commit"}`, true},
		{`{"kind":"commit","vid":"a","vid":"b"}`, true},
		{`{"kind":"commit","wall":"2024-02-29T23:59:59.123456789+05:30","tstamp":-9223372036854775808}`, true},
		{`{"kind":"log","value":"😀 \ud800 \udc00x \ud800A é \/ \"\\\b\f\n\r\t"}`, true},
		{`{"kind":"log","value_type":9223372036854775807,"ctx_id":-0}`, true},
		{"{\"kind\":\"log\",\"value\":\"\xff\xc3(\"}", true},
		{`{"kind":"log","value":"\ud800\ndc00"}`, true},
		{commit + " ", false},
		{` ` + commit, false},
		{`{"kind":"commit", "vid":"v"}`, false},
		{`{"kind" :"commit"}`, false},
		{`{"kind":"commit","vid";"v"}`, false},
		{`{"projid":"p","kind":"commit"}`, false},
		{`{"kind":"commit","kind":"log"}`, false},
		{`{"kind":"commit","KIND":"log"}`, false},
		{`{"kind":"commit","VID":"v"}`, false},
		{`{"kind":"commit","extra":1}`, false},
		{`{"kind":"commit","vid":null}`, false},
		{`{"kind":"commit","wall":null}`, false},
		{`{"kind":"commit","tstamp":1.0}`, false},
		{`{"kind":"commit","tstamp":1e3}`, false},
		{`{"kind":"commit","tstamp":01}`, false},
		{`{"kind":"commit","tstamp":+1}`, false},
		{`{"kind":"commit","tstamp":-}`, false},
		{`{"kind":"commit","tstamp":9223372036854775808}`, false},
		{`{"kind":"commit","tstamp":-9223372036854775809}`, false},
		{`{"kind":"commit","tstamp":"4"}`, false},
		{`{"kind":"commit","vid":4}`, false},
		{`{"kind":"commit","vid":"a\'b"}`, false},
		{`{"kind":"commit","vid":"a\x"}`, false},
		{`{"kind":"commit","vid":"\u12"}`, false},
		{"{\"kind\":\"commit\",\"vid\":\"a\tb\"}", false},
		{`{"kind":"commit","wall":"1970-01-01 00:01:42Z"}`, false},
		{`{"kind":"commit","wall":"1970-01-01T00:01:42"}`, false},
		{`{"kind":"commit","wall":"1970-01-01T00:01:42\u005a"}`, false},
		{`{"kind":"commit","wall":0}`, false},
		{`{"kind":"commit","vid":"v"`, false},
		{`{"kind":"commit","vid":"v}`, false},
		{`{"kind":"commit",}`, false},
		{`{"kind":"commit"}}`, false},
		{`{"kind":"nope"}`, false},
		{`{"kind":""}`, false},
		{`{"kind":1}`, false},
		{`{"kind"`, false},
		{`not json`, false},
		{``, false},
	}
	for _, c := range cases {
		checkAgainstReference(t, []byte(c.line))
		if _, err := Decode([]byte(c.line)); (err == nil) != c.accept {
			t.Errorf("Decode(%q) error = %v, want accept=%v", c.line, err, c.accept)
		}
	}
}

// BenchmarkRecordDecode times one WAL line of each kind through Decode.
func BenchmarkRecordDecode(b *testing.B) {
	wall := time.Date(2025, 3, 14, 15, 9, 26, 535897932, time.UTC)
	recs := []struct {
		kind Kind
		rec  any
	}{
		{KindLog, &LogRecord{Kind: KindLog, ProjID: "paper-loop", Tstamp: 42, Filename: "train.flow", CtxID: 1234, ValueName: "loss", Value: "0.123456789", ValueType: VTFloat, Wall: wall}},
		{KindLoop, &LoopRecord{Kind: KindLoop, ProjID: "paper-loop", Tstamp: 42, Filename: "train.flow", CtxID: 1235, ParentCtxID: 1234, LoopName: "epoch", LoopIter: 7, IterValue: "7", Wall: wall}},
		{KindArg, &ArgRecord{Kind: KindArg, ProjID: "paper-loop", Tstamp: 42, Filename: "train.flow", Name: "lr", Value: "0.001"}},
		{KindCkpt, &CkptRecord{Kind: KindCkpt, ProjID: "paper-loop", Tstamp: 42, Filename: "train.flow", CtxID: 1235, Name: "ckpt::epoch::7", BlobKey: "5f2b9c0e7a1d4e3f8b6a9c2d1e0f7a3b"}},
		{KindCommit, &CommitRecord{Kind: KindCommit, ProjID: "paper-loop", Tstamp: 42, VID: "9c2d1e0f7a3b5f2b", Wall: wall}},
	}
	for _, c := range recs {
		line, err := Encode(c.rec)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(string(c.kind), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(line)))
			for b.Loop() {
				if _, err := Decode(line); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
