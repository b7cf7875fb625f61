package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A runtime/pprof CPU profile is a gzipped profile.proto message. This
// file decodes just the fields the fold needs — sample types, samples,
// locations, functions and the string table — with a hand-rolled
// protobuf reader, so the benchmark stays standard-library only.

// Field numbers from github.com/google/pprof/proto/profile.proto.
const (
	fProfileSampleType  = 1
	fProfileSample      = 2
	fProfileLocation    = 4
	fProfileFunction    = 5
	fProfileStringTable = 6

	fValueTypeType = 1

	fSampleLocationID = 1
	fSampleValue      = 2

	fLocationID   = 1
	fLocationLine = 4

	fLineFunctionID = 1

	fFunctionID   = 1
	fFunctionName = 2
)

// Folded is a CPU profile reduced to self time per module.
type Folded struct {
	// TotalNS is the sum of the "cpu" value over every sample.
	TotalNS int64
	// SelfNS maps a module (see moduleOf) to the CPU nanoseconds whose
	// innermost frame belongs to it.
	SelfNS map[string]int64
}

// Add merges another fold into f.
func (f *Folded) Add(g *Folded) {
	f.TotalNS += g.TotalNS
	for m, ns := range g.SelfNS {
		f.SelfNS[m] += ns
	}
}

// Conserved checks that the module self times sum exactly to the
// profile total: every sample lands in exactly one module.
func (f *Folded) Conserved() error {
	var sum int64
	for _, ns := range f.SelfNS {
		sum += ns
	}
	if sum != f.TotalNS {
		return fmt.Errorf("profile fold: module self times sum to %d ns, profile total is %d ns", sum, f.TotalNS)
	}
	return nil
}

// FoldProfile decodes a gzipped CPU profile and attributes each
// sample's CPU time to the module of its innermost frame: the first
// line of the leaf location, which for inlined code is the inlined
// callee rather than the function it was inlined into.
func FoldProfile(gz []byte) (*Folded, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile fold: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile fold: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("profile fold: %w", err)
	}
	cpu := -1
	for i, t := range p.sampleTypes {
		if p.str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile fold: no cpu sample type")
	}
	f := &Folded{SelfNS: map[string]int64{}}
	for _, s := range p.samples {
		if cpu >= len(s.values) {
			return nil, errors.New("profile fold: sample lacks the cpu value")
		}
		v := s.values[cpu]
		f.TotalNS += v
		name := ""
		if len(s.locs) > 0 {
			if fn, ok := p.locFunc[s.locs[0]]; ok {
				name = p.str(p.funcName[fn])
			}
		}
		f.SelfNS[moduleOf(name)] += v
	}
	return f, nil
}

// moduleOf maps a symbol name from a profile to the bucket its time is
// folded into: the module name for repro/internal/<module>/...,
// "runtime" for the Go runtime, "stdlib" for the rest of the standard
// library, and "other" for everything else (the benchmark's own code,
// the vtsim facade, unsymbolized frames). It handles closures
// (pkg.F.func1.2), method values (pkg.(*T).M-fm), goroutine wrappers
// (pkg.F.gowrap1), generic instantiations (pkg.F[go.shape.int], whose
// type arguments may name other packages) and compiler-generated
// equality and hash functions (type:.eq.pkg.T).
func moduleOf(sym string) string {
	for _, prefix := range []string{"type:.eq.", "type:.hash."} {
		sym = strings.TrimPrefix(sym, prefix)
	}
	// Array and pointer type prefixes of generated functions: [4]pkg.T, *pkg.T.
	for strings.HasPrefix(sym, "[") || strings.HasPrefix(sym, "*") {
		if sym[0] == '*' {
			sym = sym[1:]
			continue
		}
		i := strings.IndexByte(sym, ']')
		if i < 0 {
			return "other"
		}
		sym = sym[i+1:]
	}
	// Type arguments may contain slashes and dots; a package path never
	// contains '['.
	if i := strings.IndexByte(sym, '['); i >= 0 {
		sym = sym[:i]
	}
	slash := strings.LastIndexByte(sym, '/')
	dot := strings.IndexByte(sym[slash+1:], '.')
	if dot < 0 {
		return "other"
	}
	pkg := sym[:slash+1+dot]
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		m, _, _ := strings.Cut(strings.TrimPrefix(pkg, "repro/internal/"), "/")
		return m
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "main" || pkg == "repro" || strings.HasPrefix(pkg, "repro/"):
		return "other"
	case !strings.Contains(strings.SplitN(pkg, "/", 2)[0], "."):
		return "stdlib"
	}
	return "other"
}

type sample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	sampleTypes []int64 // string-table index of each sample type's name
	samples     []sample
	locFunc     map[uint64]uint64 // location id -> innermost function id
	funcName    map[uint64]int64  // function id -> string-table index
	strings     []string
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFunc: map[uint64]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, sub []byte) error {
		switch num {
		case fProfileSampleType:
			return eachField(sub, func(n, w int, v uint64, _ []byte) error {
				if n == fValueTypeType {
					p.sampleTypes = append(p.sampleTypes, int64(v))
				}
				return nil
			})
		case fProfileSample:
			var s sample
			err := eachField(sub, func(n, w int, v uint64, sub []byte) error {
				switch n {
				case fSampleLocationID:
					return appendVarints(w, v, sub, func(x uint64) { s.locs = append(s.locs, x) })
				case fSampleValue:
					return appendVarints(w, v, sub, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id, fn uint64
			haveLine := false
			err := eachField(sub, func(n, w int, v uint64, sub []byte) error {
				switch n {
				case fLocationID:
					id = v
				case fLocationLine:
					if haveLine { // later lines are the callers it was inlined into
						return nil
					}
					haveLine = true
					return eachField(sub, func(n, w int, v uint64, _ []byte) error {
						if n == fLineFunctionID {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if haveLine {
				p.locFunc[id] = fn
			}
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(sub, func(n, w int, v uint64, _ []byte) error {
				switch n {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case fProfileStringTable:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	return p, err
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and either its varint value (wire type 0) or its
// payload (wire type 2). Fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("truncated field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("truncated varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("truncated length-delimited field")
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints handles a repeated varint field in either encoding: one
// value per field (wire type 0) or packed into one payload (wire type 2).
func appendVarints(wire int, v uint64, sub []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return errors.New("truncated packed varint")
		}
		add(x)
		sub = sub[n:]
	}
	return nil
}
