package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"repro/internal/corpus"
	"repro/internal/footprint"
	"repro/internal/linuxapi"
)

// truth is one corpus generation's ground truth, taken from the
// generator and never from the analyser: the planted footprints, the
// popcon installation fractions and the APT dependency closures. The
// importance and completeness expectations are computed here from the
// Appendix A.1 formulas, independently of internal/metrics.
type truth struct {
	planted    map[string]digest // per package: the planted footprint
	pkgs       []string          // sorted
	frac       []float64
	sysBits    [][]uint64 // per package: planted syscalls over sysIndex
	closure    [][]int    // per package: indices of its closure members
	footprint  map[string][]string
	importance map[string]float64
}

// sysIndex numbers the syscall table for the oracle's own bitsets.
var sysIndex = func() map[string]int {
	m := make(map[string]int, len(linuxapi.Syscalls))
	for i, sc := range linuxapi.Syscalls {
		m[sc.Name] = i
	}
	return m
}()

func newTruth(c *corpus.Corpus) *truth {
	t := &truth{
		planted:    make(map[string]digest, len(c.Planted)),
		footprint:  make(map[string][]string),
		importance: make(map[string]float64),
	}
	t.pkgs = c.Repo.Names()
	sort.Strings(t.pkgs)
	pos := make(map[string]int, len(t.pkgs))
	for i, p := range t.pkgs {
		pos[p] = i
	}
	words := (len(linuxapi.Syscalls) + 63) / 64
	logSurv := make(map[string]float64)
	for i, p := range t.pkgs {
		f := c.Survey.Fraction(p)
		t.frac = append(t.frac, f)
		t.planted[p] = digestOf(c.Planted[p])
		bits := make([]uint64, words)
		var names []string
		for api := range c.Planted[p] {
			if api.Kind != linuxapi.KindSyscall {
				continue
			}
			names = append(names, api.Name)
			if j, ok := sysIndex[api.Name]; ok {
				bits[j/64] |= 1 << (j % 64)
			}
			if f > 0 {
				logSurv[api.Name] += math.Log1p(-math.Min(f, 1-1e-15))
			} else if _, ok := logSurv[api.Name]; !ok {
				logSurv[api.Name] = 0
			}
		}
		sort.Strings(names)
		t.footprint[p] = names
		t.sysBits = append(t.sysBits, bits)
		var cl []int
		for _, dep := range c.Repo.DependencyClosure(p) {
			if j, ok := pos[dep]; ok && j != i {
				cl = append(cl, j)
			}
		}
		t.closure = append(t.closure, cl)
	}
	// Appendix A.1: importance = 1 - prod over users (1 - Pr{installed}).
	for name, ls := range logSurv {
		t.importance[name] = -math.Expm1(ls)
	}
	return t
}

// completeness is Appendix A.2's weighted completeness of a supported
// syscall set: the installation-weighted share of packages whose own
// syscalls and whose whole dependency closure's syscalls are supported.
func (t *truth) completeness(supported []string) float64 {
	words := (len(linuxapi.Syscalls) + 63) / 64
	sup := make([]uint64, words)
	for _, n := range supported {
		if j, ok := sysIndex[n]; ok {
			sup[j/64] |= 1 << (j % 64)
		}
	}
	own := make([]bool, len(t.pkgs))
	for i, bits := range t.sysBits {
		ok := true
		for w := range bits {
			if bits[w]&^sup[w] != 0 {
				ok = false
				break
			}
		}
		own[i] = ok
	}
	var num, den float64
	for i := range t.pkgs {
		den += t.frac[i]
		if t.frac[i] == 0 || !own[i] {
			continue
		}
		good := true
		for _, j := range t.closure[i] {
			if !own[j] {
				good = false
				break
			}
		}
		if good {
			num += t.frac[i]
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// digest identifies a footprint by its size and an order-independent
// hash of its members, so the oracle keeps a few bytes per package
// instead of the generator's sets.
type digest struct {
	n   int
	sum uint64
}

func digestOf(fp footprint.Set) digest {
	d := digest{n: len(fp)}
	for api := range fp {
		h := fnv.New64a()
		h.Write([]byte{byte(api.Kind)})
		h.Write([]byte(api.Name))
		d.sum += h.Sum64()
	}
	return d
}

// checkFootprints compares every package's measured footprint with the
// planted one and returns one error per mismatching package.
func (t *truth) checkFootprints(measured map[string]footprint.Set) []error {
	var errs []error
	for _, p := range t.pkgs {
		m, ok := measured[p]
		if !ok {
			errs = append(errs, fmt.Errorf("%s: no measured footprint", p))
			continue
		}
		if got, want := digestOf(m), t.planted[p]; got != want {
			errs = append(errs, fmt.Errorf("%s: measured %d APIs, planted %d, and the sets differ", p, got.n, want.n))
		}
	}
	if len(measured) != len(t.pkgs) {
		errs = append(errs, fmt.Errorf("measured %d packages, corpus has %d", len(measured), len(t.pkgs)))
	}
	return errs
}

// importanceOrder lists the syscalls by descending ground-truth
// importance (ties by name): the ordering request streams sample from.
func (t *truth) importanceOrder() []string {
	var names []string
	for n := range t.importance {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := t.importance[names[i]], t.importance[names[j]]
		if a != b {
			return a > b
		}
		return names[i] < names[j]
	})
	return names
}
