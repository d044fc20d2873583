package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"sparc64v/internal/trace"
)

// goldenRecords is how many records per CPU the stream digest covers.
const goldenRecords = 200_000

// goldenStreams pins the first goldenRecords records of each of four
// CPUs' streams (seed 1) for every named workload. Any change to the
// static-program build or the generator's RNG draw order shows up here
// before it reaches a simulation report.
var goldenStreams = map[string]string{
	"specint95":   "1dd7b4810792efbf58e0bd5fca8f097ba003bc35e5bea1032aa6a6bcb305708c",
	"specfp95":    "d8c9e9de0c7396755cd939357b6c6b5a05e3f13daf8aaed7a5edd6082398a5a4",
	"specint2000": "848a0d6b41bce31dc3013e350e72f887c0559d6ac6c34f246f3a06bcf5673484",
	"specfp2000":  "ed2c952c9e20e9b4aabc14f62f65cefb7b82d86e1effd99db2ac36ac6c212c5f",
	"tpcc":        "d23223c8fb82fdeddf5fab092e51f29f5a565b7fcad8a4357a478f18c8945637",
	"tpcc16p":     "a54b0745121098001ffeb4e9d284ffd939328de63331fe1b52d49cbd27796f39",
	"hpc":         "f6bd5f3d177afdb25dd5cb7d6fd12f257beb45ad4f755c1cf550958fae32aa1a",
}

// streamDigest hashes the first n records of each generator in order.
func streamDigest(gens []*Gen, n int) string {
	h := sha256.New()
	var buf [22]byte
	for _, g := range gens {
		var r trace.Record
		for i := 0; i < n; i++ {
			g.Next(&r)
			binary.LittleEndian.PutUint64(buf[0:], r.PC)
			binary.LittleEndian.PutUint64(buf[8:], r.EA)
			buf[16], buf[17], buf[18], buf[19] = byte(r.Op), r.Dst, r.Src1, r.Src2
			buf[20] = r.Size
			buf[21] = 0
			if r.Taken {
				buf[21] = 1
			}
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGeneratorStreamGolden(t *testing.T) {
	for _, name := range Names() {
		p, ok := ByName(name)
		if !ok {
			t.Fatalf("ByName(%q) failed", name)
		}
		got := streamDigest(NewMP(p, 1, 4), goldenRecords)
		if want := goldenStreams[name]; got != want {
			t.Errorf("%s: stream digest %s, want %s", name, got, want)
		}
	}
}
