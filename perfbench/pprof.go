package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The traced run folds a runtime/pprof CPU profile by package. The
// profile is a gzipped protocol buffer (profile.proto); the standard
// library writes it but has no reader, so the few fields the fold needs
// are decoded here: samples (leaf location, CPU nanoseconds), locations
// (inlined function lines) and functions (name index into the string
// table).

// pbField is one decoded protobuf field: a varint or a byte slice.
type pbField struct {
	num    int
	wire   int
	varint uint64
	bytes  []byte
}

var errPB = errors.New("pprof: malformed protobuf")

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbFields splits a message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		tag, n := pbVarint(b)
		if n == 0 {
			return nil, errPB
		}
		b = b[n:]
		f := pbField{num: int(tag >> 3), wire: int(tag & 7)}
		switch f.wire {
		case 0:
			v, n := pbVarint(b)
			if n == 0 {
				return nil, errPB
			}
			f.varint, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errPB
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return nil, errPB
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errPB
			}
			b = b[4:]
		default:
			return nil, errPB
		}
		out = append(out, f)
	}
	return out, nil
}

// pbInts returns a repeated integer field's values, packed or not.
func pbInts(f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.varint}, nil
	}
	var out []uint64
	b := f.bytes
	for len(b) > 0 {
		v, n := pbVarint(b)
		if n == 0 {
			return nil, errPB
		}
		out, b = append(out, v), b[n:]
	}
	return out, nil
}

// foldProfile returns CPU nanoseconds per package group, attributing each
// sample to the package of its leaf (innermost, inlined-into-nothing)
// function, and per function for the samples that fall in "other".
func foldProfile(gz []byte) (groups, other map[string]int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("pprof: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{} // function id -> string index
	locFunc := map[uint64]uint64{}  // location id -> leaf function id
	type sample struct {
		leaf  uint64
		value int64
	}
	var samples []sample
	for _, f := range top {
		switch f.num {
		case 6:
			strs = append(strs, string(f.bytes))
		case 5:
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, nil, err
			}
			var id, name uint64
			for _, g := range fs {
				switch g.num {
				case 1:
					id = g.varint
				case 2:
					name = g.varint
				}
			}
			funcName[id] = name
		case 4:
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, nil, err
			}
			var id, fn uint64
			seenLine := false
			for _, g := range fs {
				switch {
				case g.num == 1:
					id = g.varint
				case g.num == 4 && !seenLine:
					ls, err := pbFields(g.bytes)
					if err != nil {
						return nil, nil, err
					}
					for _, l := range ls {
						if l.num == 1 {
							fn = l.varint
						}
					}
					seenLine = true
				}
			}
			locFunc[id] = fn
		case 2:
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, nil, err
			}
			var s sample
			var vals []uint64
			for _, g := range fs {
				switch g.num {
				case 1:
					ids, err := pbInts(g)
					if err != nil {
						return nil, nil, err
					}
					if s.leaf == 0 && len(ids) > 0 {
						s.leaf = ids[0]
					}
				case 2:
					vs, err := pbInts(g)
					if err != nil {
						return nil, nil, err
					}
					vals = append(vals, vs...)
				}
			}
			// CPU profiles carry [samples, cpu-nanoseconds].
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			samples = append(samples, s)
		}
	}
	groups, other = make(map[string]int64), make(map[string]int64)
	for _, s := range samples {
		name := ""
		if si, ok := funcName[locFunc[s.leaf]]; ok && si < uint64(len(strs)) {
			name = strs[si]
		}
		g := packageGroup(name)
		groups[g] += s.value
		if g == "other" {
			other[name] += s.value
		}
	}
	return groups, other, nil
}

// profileGroups are the package groups the fold reports, in print order.
var profileGroups = []string{"cpu", "cache", "bpred", "tlb", "mem", "coherence", "system", "core",
	"workload", "trace", "runcache", "server", "gateway", "analytic", "net_http", "json", "runtime", "other"}

// packageGroup maps a fully qualified function name to its group: the
// simulator's internal package name, the HTTP stack, JSON, the Go
// runtime, or other.
func packageGroup(fn string) string {
	pkg, _, _ := strings.Cut(fn, "[") // generic instantiations name types
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	if rest, ok := strings.CutPrefix(pkg, "sparc64v/internal/"); ok {
		switch rest {
		case "cpu", "cache", "bpred", "tlb", "mem", "coherence", "system", "core",
			"workload", "trace", "runcache", "server", "gateway", "analytic":
			return rest
		}
		return "other"
	}
	switch {
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/") || pkg == "net" ||
		strings.HasPrefix(pkg, "vendor/golang.org/x/net/") || pkg == "bufio":
		return "net_http"
	case pkg == "encoding/json":
		return "json"
	case pkg == "math/rand":
		return "workload" // the trace generator is the simulator's RNG consumer
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") ||
		pkg == "syscall" || pkg == "internal/poll" || pkg == "sync" || pkg == "sync/atomic" ||
		strings.HasPrefix(pkg, "internal/syscall/"):
		return "runtime"
	}
	return "other"
}
