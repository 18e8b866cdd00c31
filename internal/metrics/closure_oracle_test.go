package metrics

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/apt"
	"repro/internal/footprint"
	"repro/internal/linuxapi"
	"repro/internal/popcon"
)

// The reference implementations below judge dependency closures the
// string-keyed way: one apt.DependencyClosure search per package, its
// members filtered to those with a footprint. The live metrics walk a
// dense CSR closure table built once per Input; over random
// repositories both must agree exactly, not approximately.

func refWeightedCompleteness(in *Input, supported footprint.Set, opts CompletenessOptions) float64 {
	c := in.columns()
	sup := footprint.LookupBits(supported)
	var mask *footprint.BitSet
	if !opts.AllKinds {
		mask = footprint.KindMask(opts.Kind)
	}
	okOwn := make(map[string]bool, len(c.pkgs))
	for i, pkg := range c.pkgs {
		if w := opts.Waivable[pkg]; w != nil {
			okOwn[pkg] = c.bits[i].SubsetOfWaived(sup, mask, footprint.LookupBits(w))
		} else {
			okOwn[pkg] = subsetOK(c.bits[i], sup, mask)
		}
	}
	var num, den float64
	for _, pkg := range c.pkgs {
		w := in.Survey.Fraction(pkg)
		den += w
		if w == 0 {
			continue
		}
		good := okOwn[pkg]
		if good && !opts.NoDependencyPropagation && in.Repo != nil {
			for _, dep := range in.Repo.DependencyClosure(pkg) {
				if ok, known := okOwn[dep]; known && !ok {
					good = false
					break
				}
			}
		}
		if good {
			num += w
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

func refGreedyPath(in *Input, include func(linuxapi.API) bool, waivable map[string]footprint.Set) []PathPoint {
	imp := Importance(in)
	unw := Unweighted(in)
	var apis []linuxapi.API
	for api := range imp {
		if include(api) {
			apis = append(apis, api)
		}
	}
	sort.Slice(apis, func(i, j int) bool {
		a, b := apis[i], apis[j]
		if qa, qb := quantize(imp[a]), quantize(imp[b]); qa != qb {
			return qa > qb
		}
		if unw[a] != unw[b] {
			return unw[a] > unw[b]
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Kind < b.Kind
	})
	c := in.columns()
	rankByID := make([]int, c.cap)
	for i, api := range apis {
		if id, ok := linuxapi.InternedID(api); ok && int(id) < len(rankByID) {
			rankByID[id] = i + 1
		}
	}
	demand := make(map[string]int, len(c.pkgs))
	for i, pkg := range c.pkgs {
		var wb *footprint.BitSet
		if w := waivable[pkg]; w != nil {
			wb = footprint.LookupBits(w)
		}
		d := 0
		c.bits[i].ForEach(func(id uint32) {
			if wb != nil && wb.HasID(id) {
				return
			}
			if r := rankByID[id]; r > d {
				d = r
			}
		})
		demand[pkg] = d
	}
	effective := make(map[string]int, len(demand))
	for pkg := range demand {
		d := demand[pkg]
		if in.Repo != nil {
			for _, dep := range in.Repo.DependencyClosure(pkg) {
				if dd, ok := demand[dep]; ok && dd > d {
					d = dd
				}
			}
		}
		effective[pkg] = d
	}
	massAt := make([]float64, len(apis)+1)
	var total float64
	for _, pkg := range c.pkgs {
		w := in.Survey.Fraction(pkg)
		total += w
		massAt[effective[pkg]] += w
	}
	out := make([]PathPoint, len(apis))
	cum := massAt[0]
	for i, api := range apis {
		cum += massAt[i+1]
		wc := 0.0
		if total > 0 {
			wc = cum / total
		}
		out[i] = PathPoint{N: i + 1, API: api, Importance: imp[api], Completeness: wc}
	}
	return out
}

// oraclePool mixes every API kind, so kind filters and the all-kinds
// path see foreign members in every footprint.
var oraclePool = []linuxapi.API{
	linuxapi.Sys("read"), linuxapi.Sys("write"), linuxapi.Sys("openat"),
	linuxapi.Sys("mmap"), linuxapi.Sys("ioctl"), linuxapi.Sys("reboot"),
	linuxapi.Sys("kexec_load"), linuxapi.Sys("futex"), linuxapi.Sys("clone"),
	linuxapi.Ioctl("TCGETS"), linuxapi.Ioctl("FIONREAD"),
	linuxapi.Fcntl("F_GETFL"), linuxapi.Prctl("PR_SET_NAME"),
	linuxapi.Pseudo("/proc/cpuinfo"), linuxapi.Pseudo("/dev/null"),
	linuxapi.LibcSym("printf"), linuxapi.LibcSym("read"),
}

var oracleKinds = []linuxapi.Kind{
	linuxapi.KindSyscall, linuxapi.KindIoctl, linuxapi.KindFcntl,
	linuxapi.KindPrctl, linuxapi.KindPseudoFile, linuxapi.KindLibcSym,
}

func randomAPISet(r *rand.Rand, maxN int) footprint.Set {
	s := make(footprint.Set)
	for n := r.Intn(maxN + 1); n > 0; n-- {
		s.Add(oraclePool[r.Intn(len(oraclePool))])
	}
	return s
}

// randomOracleInput builds a repository with dependency cycles,
// self-dependencies, dangling Depends (some naming footprinted packages
// that the repository lacks), repository packages without footprints,
// and — every fifth trial — no repository at all.
func randomOracleInput(r *rand.Rand, trial int) *Input {
	n := 2 + r.Intn(24)
	name := func(i int) string { return fmt.Sprintf("p%02d", i) }
	ghost := func(i int) string { return fmt.Sprintf("ghost%d", i) }
	sv := popcon.NewSurvey(1000)
	fps := map[string]footprint.Set{}
	repo := apt.NewRepository()
	for i := 0; i < n; i++ {
		var deps []string
		for d := r.Intn(4); d > 0; d-- {
			switch r.Intn(6) {
			case 0:
				deps = append(deps, name(i)) // self-dependency
			case 1:
				deps = append(deps, ghost(r.Intn(4))) // dangling
			default:
				deps = append(deps, name(r.Intn(n))) // cycles likely
			}
		}
		repo.Add(&apt.Package{Name: name(i), Depends: deps})
		if r.Intn(5) == 0 {
			continue // in the repository, absent from the footprints
		}
		fps[name(i)] = randomAPISet(r, 6)
		sv.Set(name(i), int64(r.Intn(4)*r.Intn(300)))
	}
	for g := 0; g < 4; g++ {
		if r.Intn(2) == 0 {
			fps[ghost(g)] = randomAPISet(r, 4) // footprinted, not in the repository
			sv.Set(ghost(g), int64(r.Intn(500)))
		}
	}
	in := &Input{Repo: repo, Survey: sv, Footprints: fps}
	if trial%5 == 0 {
		in.Repo = nil
	}
	return in
}

func randomWaivable(r *rand.Rand, fps map[string]footprint.Set) map[string]footprint.Set {
	if r.Intn(2) == 0 {
		return nil
	}
	w := map[string]footprint.Set{}
	for pkg := range fps {
		if r.Intn(3) == 0 {
			w[pkg] = randomAPISet(r, 3)
		}
	}
	return w
}

func samePath(a, b []PathPoint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestDenseClosuresMatchStringClosureOracle(t *testing.T) {
	const trials = 300
	r := rand.New(rand.NewSource(20161))
	for trial := 0; trial < trials; trial++ {
		in := randomOracleInput(r, trial)
		for q := 0; q < 6; q++ {
			opts := CompletenessOptions{
				Kind:                    oracleKinds[r.Intn(len(oracleKinds))],
				AllKinds:                r.Intn(3) == 0,
				NoDependencyPropagation: r.Intn(4) == 0,
				Waivable:                randomWaivable(r, in.Footprints),
			}
			sup := randomAPISet(r, len(oraclePool))
			if got, want := WeightedCompleteness(in, sup, opts), refWeightedCompleteness(in, sup, opts); got != want {
				t.Fatalf("trial %d: WeightedCompleteness(%v, %+v) = %v, oracle %v", trial, sup, opts, got, want)
			}
		}
		kind := oracleKinds[r.Intn(len(oracleKinds))]
		ofKind := func(api linuxapi.API) bool { return api.Kind == kind }
		if got, want := GreedyPath(in, kind), refGreedyPath(in, ofKind, nil); !samePath(got, want) {
			t.Fatalf("trial %d: GreedyPath(%v) = %+v, oracle %+v", trial, kind, got, want)
		}
		all := func(linuxapi.API) bool { return true }
		if got, want := GreedyPathAll(in), refGreedyPath(in, all, nil); !samePath(got, want) {
			t.Fatalf("trial %d: GreedyPathAll = %+v, oracle %+v", trial, got, want)
		}
		w := randomWaivable(r, in.Footprints)
		if got, want := GreedyPathWaived(in, kind, w), refGreedyPath(in, ofKind, w); !samePath(got, want) {
			t.Fatalf("trial %d: GreedyPathWaived(%v) = %+v, oracle %+v", trial, kind, got, want)
		}
	}
}
