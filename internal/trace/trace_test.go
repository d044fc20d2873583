package trace

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"sparc64v/internal/isa"
)

func randRecord(rng *rand.Rand) Record {
	classes := []isa.Class{isa.IntALU, isa.IntMul, isa.Load, isa.Store,
		isa.FPAdd, isa.FPMulAdd, isa.Branch, isa.Call, isa.Return, isa.Special, isa.Nop}
	r := Record{
		PC:   uint64(rng.Int63n(1<<40)) &^ 3,
		Op:   classes[rng.Intn(len(classes))],
		Dst:  isa.RegNone,
		Src1: isa.RegNone,
		Src2: isa.RegNone,
	}
	if rng.Intn(2) == 0 {
		r.Dst = uint8(rng.Intn(isa.NumRegs))
	}
	if rng.Intn(2) == 0 {
		r.Src1 = uint8(rng.Intn(isa.NumRegs))
	}
	if rng.Intn(3) == 0 {
		r.Src2 = uint8(rng.Intn(isa.NumRegs))
	}
	if r.Op.IsMemory() {
		r.EA = uint64(rng.Int63n(1 << 40))
		r.Size = []uint8{1, 2, 4, 8}[rng.Intn(4)]
	}
	if r.Op.IsBranch() {
		r.Taken = rng.Intn(2) == 0
		if r.Taken {
			r.EA = uint64(rng.Int63n(1<<40)) &^ 3
		}
	}
	return r
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	recs := make([]Record, 5000)
	for i := range recs {
		recs[i] = randRecord(rng)
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatalf("Write(%d): %v", i, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != uint64(len(recs)) {
		t.Fatalf("Count = %d, want %d", w.Count(), len(recs))
	}

	rd, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got Record
	for i := range recs {
		if !rd.Next(&got) {
			t.Fatalf("Next returned false at %d (err=%v)", i, rd.Err())
		}
		want := recs[i]
		// EA of a not-taken branch is not encoded; normalize.
		if want.Op.IsBranch() && !want.Taken {
			want.EA = 0
		}
		if got != want {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if rd.Next(&got) {
		t.Fatal("Next returned true past end")
	}
	if rd.Err() != nil {
		t.Fatalf("Err = %v", rd.Err())
	}
}

// Property: the round trip preserves every field the format defines, for
// arbitrary generated records.
func TestRoundTripQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n)%64 + 1
		recs := make([]Record, count)
		for i := range recs {
			recs[i] = randRecord(rng)
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		for i := range recs {
			if w.Write(&recs[i]) != nil {
				return false
			}
		}
		if w.Flush() != nil {
			return false
		}
		rd, err := NewReader(&buf)
		if err != nil {
			return false
		}
		var got Record
		for i := range recs {
			if !rd.Next(&got) {
				return false
			}
			want := recs[i]
			if want.Op.IsBranch() && !want.Taken {
				want.EA = 0
			}
			if got != want {
				return false
			}
		}
		return !rd.Next(&got) && rd.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBadMagic(t *testing.T) {
	_, err := NewReader(strings.NewReader("NOTATRACEFILE"))
	if err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	r := Record{PC: 0x1000, Op: isa.Load, EA: 0x2000, Size: 8,
		Dst: 1, Src1: 2, Src2: isa.RegNone}
	if err := w.Write(&r); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	full := buf.Bytes()
	// Chop the stream anywhere inside the record body: Next must fail
	// cleanly with a non-nil Err, never panic.
	for cut := len(Magic) + 2; cut < len(full); cut++ {
		rd, err := NewReader(bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatalf("cut=%d: NewReader: %v", cut, err)
		}
		var got Record
		if rd.Next(&got) {
			continue // record happened to be complete
		}
		if rd.Err() == nil {
			t.Fatalf("cut=%d: truncation not reported", cut)
		}
	}
}

func TestWriteInvalidRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	bad := Record{Op: isa.Load, Size: 3, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone}
	if err := w.Write(&bad); err == nil {
		t.Fatal("Write accepted invalid size")
	}
	bad = Record{Op: isa.Class(99), Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone}
	if err := w.Write(&bad); err == nil {
		t.Fatal("Write accepted invalid class")
	}
}

func TestSliceSource(t *testing.T) {
	recs := []Record{
		{PC: 0, Op: isa.IntALU, Dst: 1, Src1: isa.RegNone, Src2: isa.RegNone},
		{PC: 4, Op: isa.IntALU, Dst: 2, Src1: 1, Src2: isa.RegNone},
	}
	s := NewSliceSource(recs)
	got := Collect(s, 0)
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("Collect = %+v, want %+v", got, recs)
	}
	s.Reset()
	if got := Collect(s, 1); len(got) != 1 || got[0] != recs[0] {
		t.Fatalf("Collect(max=1) = %+v", got)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestLimitSource(t *testing.T) {
	recs := make([]Record, 10)
	for i := range recs {
		recs[i] = Record{PC: uint64(i * 4), Op: isa.IntALU,
			Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone}
	}
	l := NewLimitSource(NewSliceSource(recs), 3)
	if got := Collect(l, 0); len(got) != 3 {
		t.Fatalf("limit 3 yielded %d records", len(got))
	}
	l = NewLimitSource(NewSliceSource(recs[:2]), 5)
	if got := Collect(l, 0); len(got) != 2 {
		t.Fatalf("short source yielded %d records", len(got))
	}
}

func TestNextPC(t *testing.T) {
	r := Record{PC: 100, Op: isa.IntALU}
	if r.NextPC() != 104 {
		t.Errorf("sequential NextPC = %d", r.NextPC())
	}
	r = Record{PC: 100, Op: isa.Branch, Taken: true, EA: 400}
	if r.NextPC() != 400 {
		t.Errorf("taken branch NextPC = %d", r.NextPC())
	}
	r = Record{PC: 100, Op: isa.Branch, Taken: false, EA: 400}
	if r.NextPC() != 104 {
		t.Errorf("not-taken branch NextPC = %d", r.NextPC())
	}
}

func TestRecordString(t *testing.T) {
	for _, r := range []Record{
		{PC: 0x40, Op: isa.Load, EA: 0x1000, Size: 8, Dst: 3, Src1: 1, Src2: isa.RegNone},
		{PC: 0x44, Op: isa.Branch, Taken: true, EA: 0x80},
		{PC: 0x48, Op: isa.IntALU, Dst: 4, Src1: 3, Src2: 2},
	} {
		if s := r.String(); s == "" {
			t.Errorf("empty String for %+v", r)
		}
	}
}

func TestOpenReaderGzip(t *testing.T) {
	recs := []Record{
		{PC: 0x1000, Op: isa.Load, EA: 0x2000, Size: 8, Dst: 1, Src1: 2, Src2: isa.RegNone},
		{PC: 0x1004, Op: isa.IntALU, Dst: 3, Src1: 1, Src2: isa.RegNone},
	}
	var plain bytes.Buffer
	w, _ := NewWriter(&plain)
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()

	var zipped bytes.Buffer
	gz := gzip.NewWriter(&zipped)
	gz.Write(plain.Bytes())
	gz.Close()

	for name, buf := range map[string][]byte{"plain": plain.Bytes(), "gzip": zipped.Bytes()} {
		rd, err := OpenReader(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := Collect(rd, 0)
		if len(got) != len(recs) {
			t.Fatalf("%s: %d records", name, len(got))
		}
		if rd.Err() != nil {
			t.Fatalf("%s: %v", name, rd.Err())
		}
	}
	// Corrupt gzip header fails cleanly.
	if _, err := OpenReader(bytes.NewReader([]byte{0x1f, 0x8b, 0xff, 0x00})); err == nil {
		t.Error("corrupt gzip accepted")
	}
}

// TestHeaderCountRoundTrip locks the header encoding: the count varint must
// actually be the encoded bytes (a former bug wrote a zero-filled buffer of
// the right length instead — invisible for count 0, corrupt for any other).
func TestHeaderCountRoundTrip(t *testing.T) {
	for _, count := range []uint64{0, 1, 127, 128, 300, 1 << 20, 1<<63 - 1} {
		var buf bytes.Buffer
		w, err := NewWriterCount(&buf, count)
		if err != nil {
			t.Fatal(err)
		}
		r := Record{PC: 0x1000, Op: isa.IntALU, Dst: 1, Src1: isa.RegNone, Src2: isa.RegNone}
		if err := w.Write(&r); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		// The bytes after the magic must be the minimal varint encoding.
		var want [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(want[:], count)
		if got := buf.Bytes()[len(Magic) : len(Magic)+n]; !bytes.Equal(got, want[:n]) {
			t.Fatalf("count %d: header varint % x, want % x", count, got, want[:n])
		}
		rd, err := NewReader(&buf)
		if err != nil {
			t.Fatalf("count %d: %v", count, err)
		}
		if rd.HeaderCount() != count {
			t.Fatalf("HeaderCount = %d, want %d", rd.HeaderCount(), count)
		}
		var got Record
		if !rd.Next(&got) || got != r {
			t.Fatalf("count %d: record lost after header (err=%v)", count, rd.Err())
		}
	}
	// NewWriter writes the "unknown" count.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Flush()
	rd, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rd.HeaderCount() != 0 {
		t.Fatalf("default HeaderCount = %d", rd.HeaderCount())
	}
}

// buildTestTrace writes a mixed-class trace and returns the encoded bytes
// plus the byte offset of every record boundary (the header end included).
func buildTestTrace(t *testing.T, n int) ([]byte, map[int]int) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	boundaries := map[int]int{buf.Len(): 0} // offset -> records before it
	for i := 0; i < n; i++ {
		r := randRecord(rng)
		if err := w.Write(&r); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		boundaries[buf.Len()] = i + 1
	}
	return buf.Bytes(), boundaries
}

// TestTruncateEveryOffset cuts a valid multi-record trace at every byte
// offset: the Reader must report a truncation error everywhere except at
// exact record boundaries, where it must deliver exactly the records before
// the cut and end cleanly.
func TestTruncateEveryOffset(t *testing.T) {
	full, boundaries := buildTestTrace(t, 40)
	headerLen := len(Magic) + 1 // magic + one-byte varint count 0
	for cut := 0; cut <= len(full); cut++ {
		rd, err := NewReader(bytes.NewReader(full[:cut]))
		if cut < headerLen {
			if err == nil {
				t.Fatalf("cut=%d: truncated header accepted", cut)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut=%d: NewReader: %v", cut, err)
		}
		var r Record
		read := 0
		for rd.Next(&r) {
			read++
		}
		want, atBoundary := boundaries[cut]
		if atBoundary {
			if rd.Err() != nil {
				t.Fatalf("cut=%d (boundary): spurious error %v", cut, rd.Err())
			}
			if read != want {
				t.Fatalf("cut=%d (boundary): read %d records, want %d", cut, read, want)
			}
		} else {
			if rd.Err() == nil {
				t.Fatalf("cut=%d (mid-record, %d records read): truncation not reported",
					cut, read)
			}
		}
	}
}

// TestTruncatedGzip cuts the *compressed* stream at every offset: a short
// .gz must never read as a clean shorter trace — either OpenReader fails or
// Err() reports the damage, including cuts inside the gzip trailer where
// every record decodes but the CRC32/length words are missing.
func TestTruncatedGzip(t *testing.T) {
	full, _ := buildTestTrace(t, 25)
	var zipped bytes.Buffer
	gz := gzip.NewWriter(&zipped)
	gz.Write(full)
	gz.Close()
	zb := zipped.Bytes()
	for cut := 2; cut < len(zb); cut++ {
		rd, err := OpenReader(bytes.NewReader(zb[:cut]))
		if err != nil {
			continue // damage caught at open time
		}
		var r Record
		read := 0
		for rd.Next(&r) {
			read++
		}
		if rd.Err() == nil {
			t.Fatalf("cut=%d/%d: truncated gzip read as a clean %d-record trace",
				cut, len(zb), read)
		}
	}
	// The whole stream still reads cleanly.
	rd, err := OpenReader(bytes.NewReader(zb))
	if err != nil {
		t.Fatal(err)
	}
	read := 0
	var r Record
	for rd.Next(&r) {
		read++
	}
	if rd.Err() != nil || read != 25 {
		t.Fatalf("intact gzip: %d records, err=%v", read, rd.Err())
	}
}

// TestCorruptGzipPayload flips one byte of the compressed payload: the
// checksum mismatch must surface through Err() even when the flip leaves
// the deflate stream decodable.
func TestCorruptGzipPayload(t *testing.T) {
	full, _ := buildTestTrace(t, 25)
	var zipped bytes.Buffer
	gz := gzip.NewWriter(&zipped)
	gz.Write(full)
	gz.Close()
	zb := zipped.Bytes()
	flips := 0
	for off := 10; off < len(zb)-8; off += 7 {
		mut := bytes.Clone(zb)
		mut[off] ^= 0x10
		// Some flips land in dead bits of the deflate framing (stored-block
		// padding): gzip legitimately decodes identical bytes and the CRC
		// passes. Only flips gzip itself objects to must surface.
		if g, err := gzip.NewReader(bytes.NewReader(mut)); err == nil {
			if _, err := io.Copy(io.Discard, g); err == nil {
				continue
			}
		}
		rd, err := OpenReader(bytes.NewReader(mut))
		if err != nil {
			continue // rejected outright
		}
		var r Record
		for rd.Next(&r) {
		}
		if rd.Err() == nil {
			t.Fatalf("flip at %d: corrupt gzip read cleanly", off)
		}
		flips++
	}
	if flips == 0 {
		t.Fatal("no flip exercised the reader path")
	}
}
