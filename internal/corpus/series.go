package corpus

// Release-series generation: a deterministic sequence of corpus
// "generations" modeling distro releases. Generation 0 is the ordinary
// Generate output; each later generation is derived from its predecessor
// by a seeded set of mutations:
//
//   - births: new packages enter the archive,
//   - deaths: leaf packages (no reverse dependencies) are dropped,
//   - API drift: a package deprecates one API and adopts another, and its
//     binaries are re-emitted,
//   - dependency rewiring: Depends edges are added/removed without
//     touching file bytes, and
//   - popcon shifts: install counts move while the survey population
//     stays fixed.
//
// Packages untouched by a mutation carry their file slices forward
// byte-identical, so a content-addressed analysis cache re-analyzes only
// the drifted and newborn binaries when the pipeline runs generation
// after generation. Everything is driven from the base seed: two series
// built from the same SeriesConfig are byte-identical.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/apt"
	"repro/internal/footprint"
	"repro/internal/linuxapi"
	"repro/internal/popcon"
)

// SeriesConfig parameterizes a release series.
type SeriesConfig struct {
	// Base configures generation 0 (and supplies the seed for the whole
	// series).
	Base Config
	// Generations is the number of corpora in the series (>= 1).
	Generations int
	// Births is the number of new packages introduced per generation.
	Births int
	// Deaths is the number of leaf packages removed per generation.
	Deaths int
	// Drifts is the number of packages whose API footprint mutates (one
	// deprecation plus one adoption) and whose binaries are re-emitted
	// per generation.
	Drifts int
	// Rewires is the number of packages whose Depends edges change per
	// generation; their file bytes stay identical, only the version moves.
	Rewires int
	// PopconShift is the maximum relative install-count change per package
	// per generation (0.25 = ±25%). The survey population is fixed.
	PopconShift float64
}

// DefaultSeriesConfig returns a laptop-scale 3-generation series.
func DefaultSeriesConfig() SeriesConfig {
	return SeriesConfig{
		Base:        DefaultConfig(),
		Generations: 3,
		Births:      4,
		Deaths:      2,
		Drifts:      6,
		Rewires:     4,
		PopconShift: 0.25,
	}
}

// GenerateSeries builds the full release series: Generations corpora,
// generation 0 from Generate(cfg.Base), each successor derived
// deterministically from its predecessor.
func GenerateSeries(cfg SeriesConfig) ([]*Corpus, error) {
	if cfg.Generations <= 0 {
		cfg.Generations = 1
	}
	base, err := Generate(cfg.Base)
	if err != nil {
		return nil, err
	}
	out := make([]*Corpus, 0, cfg.Generations)
	out = append(out, base)
	for g := 1; g < cfg.Generations; g++ {
		next, err := NextGeneration(out[g-1], cfg, g)
		if err != nil {
			return nil, fmt.Errorf("generation %d: %w", g, err)
		}
		out = append(out, next)
	}
	return out, nil
}

// ordinaryName reports whether a package is one of the generated ordinary
// packages (including series newborns) — the only mutation candidates.
// Calibrated packages (libc6, interpreters, Table 1 libraries, …) are
// never mutated so every generation keeps the paper's measured shapes.
func ordinaryName(name string) bool { return strings.HasPrefix(name, "pkg-") }

// mutable reports whether pkg can take an API drift: a non-static,
// non-script-only ordinary package with a main executable.
func mutable(pkg *apt.Package) bool {
	if pkg == nil || !ordinaryName(pkg.Name) {
		return false
	}
	hasMain, dynamic := false, false
	for _, f := range pkg.Files {
		if f.Path == "/usr/bin/"+pkg.Name {
			hasMain = true
		}
	}
	for _, d := range pkg.Depends {
		if d == "libc6" {
			dynamic = true
		}
	}
	return hasMain && dynamic
}

// pickN removes n deterministic choices from a sorted candidate list.
func pickN(rng *rand.Rand, candidates []string, n int) []string {
	pool := append([]string(nil), candidates...)
	var out []string
	for i := 0; i < n && len(pool) > 0; i++ {
		j := rng.Intn(len(pool))
		out = append(out, pool[j])
		pool = append(pool[:j], pool[j+1:]...)
	}
	sort.Strings(out)
	return out
}

// NextGeneration derives generation gen (1-based) from prev. prev is
// never mutated; unchanged packages are shared by pointer so their file
// bytes stay identical across the series.
func NextGeneration(prev *Corpus, cfg SeriesConfig, gen int) (*Corpus, error) {
	rng := rand.New(rand.NewSource(prev.Cfg.Seed*1000003 + int64(gen)))
	em := newEmitter(prev.Model, rng)
	em.bulk = prev.Cfg.CodeBulk

	var ordinary []string
	for _, n := range prev.Repo.Names() {
		if ordinaryName(n) {
			ordinary = append(ordinary, n)
		}
	}
	sort.Strings(ordinary)

	// Deaths: leaf ordinary packages only, so no survivor dangles.
	var leaves []string
	for _, n := range ordinary {
		if len(prev.Repo.ReverseDependencies(n)) == 0 {
			leaves = append(leaves, n)
		}
	}
	dead := map[string]bool{}
	for _, n := range pickN(rng, leaves, cfg.Deaths) {
		dead[n] = true
	}

	var survivors []string
	for _, n := range ordinary {
		if !dead[n] {
			survivors = append(survivors, n)
		}
	}

	// API drifts: mutable survivors only.
	var driftable []string
	for _, n := range survivors {
		if mutable(prev.Repo.Get(n)) {
			driftable = append(driftable, n)
		}
	}
	drifted := map[string]bool{}
	for _, n := range pickN(rng, driftable, cfg.Drifts) {
		drifted[n] = true
	}

	// Rewires: survivors not already drifting (keeps the changed-binary
	// accounting clean: rewired packages must stay byte-identical).
	var rewirable []string
	for _, n := range survivors {
		if !drifted[n] {
			rewirable = append(rewirable, n)
		}
	}
	rewired := map[string]bool{}
	for _, n := range pickN(rng, rewirable, cfg.Rewires) {
		rewired[n] = true
	}

	next := &Corpus{
		Cfg:            prev.Cfg,
		Model:          prev.Model,
		Repo:           apt.NewRepository(),
		Survey:         popcon.NewSurvey(prev.Survey.Total),
		Planted:        make(map[string]footprint.Set, len(prev.Planted)),
		InterpreterPkg: prev.InterpreterPkg,
		emitted:        make(map[string]footprint.Set, len(prev.emitted)+cfg.Births+cfg.Drifts),
	}
	for name, fp := range prev.Planted {
		if !dead[name] {
			next.Planted[name] = fp
		}
	}
	for name, fp := range prev.emitted {
		if !dead[name] {
			next.emitted[name] = fp
		}
	}

	version := fmt.Sprintf("1.0-%d", gen+1)

	// Carry forward / mutate in the predecessor's stable order.
	for _, name := range prev.Repo.Names() {
		if dead[name] {
			continue
		}
		pkg := prev.Repo.Get(name)
		switch {
		case drifted[name]:
			mut, emitted, err := driftPackage(prev, em, pkg, version, rng)
			if err != nil {
				return nil, fmt.Errorf("drift %s: %w", name, err)
			}
			next.emitted[name], next.Planted[name] = emitted, groundTruth(prev.Model, emitted)
			pkg = mut
		case rewired[name]:
			pkg = rewirePackage(prev, pkg, version, survivors, rng)
		}
		if err := next.Repo.Add(pkg); err != nil {
			return nil, err
		}
	}

	// Births: appended after the carried-forward archive.
	for i := 0; i < cfg.Births; i++ {
		name := fmt.Sprintf("pkg-g%02d-%02d", gen, i)
		pkg, emitted, err := birthPackage(prev, em, name, survivors, rng)
		if err != nil {
			return nil, fmt.Errorf("birth %s: %w", name, err)
		}
		next.emitted[name], next.Planted[name] = emitted, groundTruth(prev.Model, emitted)
		if err := next.Repo.Add(pkg); err != nil {
			return nil, err
		}
	}

	// Popcon shift: every package keeps its count scaled by a bounded
	// factor; newborns enter with a small share. The population is fixed.
	for _, name := range next.Repo.Names() {
		base := prev.Survey.Installs(name)
		var installs int64
		switch {
		case base == 0: // newborn
			installs = int64(float64(next.Survey.Total) * 0.002 * (0.5 + rng.Float64()))
		case cfg.PopconShift > 0:
			f := 1 + cfg.PopconShift*(2*rng.Float64()-1)
			installs = int64(float64(base)*f + 0.5)
			if installs < 1 {
				installs = 1
			}
		default:
			installs = base
		}
		next.Survey.Set(name, installs)
	}

	for _, name := range next.Repo.Names() {
		pkg := next.Repo.Get(name)
		for _, f := range pkg.Files {
			if len(f.Data) > 4 && f.Data[0] == 0x7F {
				if cls, _ := classifyQuick(f.Data); cls == "lib" {
					next.LibraryPaths = append(next.LibraryPaths, name+":"+f.Path)
				}
			}
		}
	}
	return next, nil
}

// driftCandidates lists the model syscalls a drifting or newborn package
// may adopt: outside the base band (those are implied) and known to the
// syscall table so the emitter can plant them.
func driftCandidates(m *Model, exclude footprint.Set) []string {
	var out []string
	for i := range m.Syscalls {
		t := &m.Syscalls[i]
		if t.Band == BandBase {
			continue
		}
		if linuxapi.SyscallByName(t.Name) == nil {
			continue
		}
		if exclude != nil && exclude.Contains(linuxapi.Sys(t.Name)) {
			continue
		}
		out = append(out, t.Name)
	}
	sort.Strings(out)
	return out
}

// driftPackage mutates one package's API footprint — deprecate one
// non-base syscall, adopt one new one — and re-emits its binaries (a
// fresh private library plus main executable), bumping the version.
func driftPackage(prev *Corpus, em *emitter, pkg *apt.Package,
	version string, rng *rand.Rand) (*apt.Package, footprint.Set, error) {

	planted := prev.Planted[pkg.Name]
	if fp, ok := prev.emitted[pkg.Name]; ok {
		planted = fp
	}
	planted = planted.Clone()

	// Deprecation: drop one non-base syscall, if any.
	var removable []string
	for _, api := range planted.Sorted() {
		if api.Kind != linuxapi.KindSyscall {
			continue
		}
		if t := prev.Model.SyscallTargetFor(api.Name); t != nil && t.Band != BandBase {
			removable = append(removable, api.Name)
		}
	}
	if len(removable) > 0 {
		delete(planted, linuxapi.Sys(removable[rng.Intn(len(removable))]))
	}
	// Adoption: plant one syscall the package did not use.
	if adds := driftCandidates(prev.Model, planted); len(adds) > 0 {
		planted.Add(linuxapi.Sys(adds[rng.Intn(len(adds))]))
	}

	out := &apt.Package{
		Name:    pkg.Name,
		Version: version,
		Section: pkg.Section,
		Depends: append([]string(nil), pkg.Depends...),
	}
	fp, err := emitOrdinary(em, out, planted)
	if err != nil {
		return nil, nil, err
	}
	return out, fp, nil
}

// rewirePackage changes one Depends edge without touching file bytes: a
// package with an ordinary dependency drops it; otherwise it gains one on
// an earlier survivor (earlier-only keeps the graph acyclic). The version
// bump moves the corpus fingerprint even though no binary changed.
func rewirePackage(prev *Corpus, pkg *apt.Package, version string,
	survivors []string, rng *rand.Rand) *apt.Package {

	out := &apt.Package{
		Name:    pkg.Name,
		Version: version,
		Section: pkg.Section,
		Files:   pkg.Files, // shared: byte-identical
	}
	dropped := false
	for _, d := range pkg.Depends {
		if !dropped && ordinaryName(d) {
			dropped = true
			continue
		}
		out.Depends = append(out.Depends, d)
	}
	if !dropped {
		var earlier []string
		for _, s := range survivors {
			if s >= pkg.Name {
				break
			}
			if !hasDep(pkg.Depends, s) {
				earlier = append(earlier, s)
			}
		}
		if len(earlier) > 0 {
			out.Depends = append(out.Depends, earlier[rng.Intn(len(earlier))])
		}
	}
	return out
}

func hasDep(deps []string, name string) bool {
	for _, d := range deps {
		if d == name {
			return true
		}
	}
	return false
}

// birthPackage emits a brand-new ordinary package: a handful of planted
// syscalls, a private library plus main executable, depending on libc6
// and (half the time) one existing survivor.
func birthPackage(prev *Corpus, em *emitter, name string,
	survivors []string, rng *rand.Rand) (*apt.Package, footprint.Set, error) {

	planted := make(footprint.Set)
	cands := driftCandidates(prev.Model, nil)
	want := 2 + rng.Intn(4)
	for _, n := range pickN(rng, cands, want) {
		planted.Add(linuxapi.Sys(n))
	}

	pkg := &apt.Package{
		Name:    name,
		Version: "1.0-1",
		Section: "misc",
		Depends: []string{"libc6"},
	}
	if len(survivors) > 0 && rng.Intn(2) == 0 {
		pkg.Depends = append(pkg.Depends, survivors[rng.Intn(len(survivors))])
	}
	fp, err := emitOrdinary(em, pkg, planted)
	if err != nil {
		return nil, nil, err
	}
	return pkg, fp, nil
}

// emitOrdinary builds the standard two-binary ordinary package shape from
// a planted footprint: a private shared library holding the raw,
// non-mediated system calls and a main executable covering the rest. It
// mirrors emitRegular's non-static path, and returns planted plus the
// libc symbols the emitter pulled in (groundTruth completes it).
func emitOrdinary(em *emitter, pkg *apt.Package, planted footprint.Set) (footprint.Set, error) {
	apis := planted.Sorted()

	var privateNums []int
	for _, api := range apis {
		if api.Kind != linuxapi.KindSyscall {
			continue
		}
		t := em.model.SyscallTargetFor(api.Name)
		if t == nil || t.Band == BandBase {
			continue
		}
		if _, mediated := libMediated[api.Name]; mediated {
			continue
		}
		if d := linuxapi.SyscallByName(api.Name); d != nil &&
			!linuxapi.IsLibcExport(api.Name) {
			privateNums = append(privateNums, d.Num)
		}
	}
	if len(privateNums) == 0 {
		privateNums = []int{1} // write
	}
	privateLib := "lib" + pkg.Name + ".so.0"
	libData, err := em.buildPrivateLib(pkg.Name, privateLib, privateNums)
	if err != nil {
		return nil, err
	}
	pkg.Files = append(pkg.Files, apt.File{
		Path: fmt.Sprintf("/usr/lib/%s/%s", pkg.Name, privateLib),
		Data: libData,
	})
	em.elfFiles++

	inLib := make(map[int]bool, len(privateNums))
	for _, n := range privateNums {
		inLib[n] = true
	}
	var execAPIs []linuxapi.API
	for _, api := range apis {
		if api.Kind == linuxapi.KindSyscall {
			if d := linuxapi.SyscallByName(api.Name); d != nil && inLib[d.Num] {
				continue
			}
		}
		execAPIs = append(execAPIs, api)
	}
	data, syms, err := em.buildExec(pkg.Name, execAPIs, false, privateLib)
	if err != nil {
		return nil, err
	}
	for _, sym := range syms {
		planted.Add(linuxapi.LibcSym(sym))
	}
	pkg.Files = append(pkg.Files, apt.File{Path: "/usr/bin/" + pkg.Name, Data: data})
	em.elfFiles++
	return planted, nil
}

// groundTruth completes an emitted ordinary package's planted set with
// what its executable reaches through libc without it being planted:
// the base band every libc program calls from __libc_start_main, and
// the system call behind every imported libc wrapper (a drift that
// drops a call from the planted set still imports its wrapper).
func groundTruth(m *Model, emitted footprint.Set) footprint.Set {
	truth := emitted.Clone()
	for i := range m.Syscalls {
		if t := &m.Syscalls[i]; t.Band == BandBase {
			truth.Add(linuxapi.Sys(t.Name))
		}
	}
	for api := range emitted {
		if api.Kind == linuxapi.KindLibcSym && linuxapi.SyscallByName(api.Name) != nil {
			truth.Add(linuxapi.Sys(api.Name))
		}
	}
	return truth
}
