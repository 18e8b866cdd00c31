package corpus

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/apt"
	"repro/internal/footprint"
	"repro/internal/linuxapi"
	"repro/internal/popcon"
)

// Config parameterizes generation.
type Config struct {
	// Packages is the total package count (the paper's repository has
	// 30,976; the default keeps laptop runs quick while preserving every
	// calibrated shape).
	Packages int
	// Installations is the survey population (default: the paper's
	// 2,935,744 combined Ubuntu+Debian installations).
	Installations int64
	// Seed drives all pseudo-randomness; corpora are reproducible.
	Seed int64
	// CodeBulk adds roughly this many bytes of API-free filler code to
	// every emitted ELF binary. Real Ubuntu/Debian executables carry tens
	// of kilobytes of .text around a handful of system-call sites — the
	// volume that made the paper's analysis a multi-day batch job — while
	// the lean default (0) emits only the planted call sites to keep
	// tests fast. Benchmarks raise this to restore a realistic ratio of
	// disassembly work to per-file aggregation work.
	CodeBulk int
}

// DefaultConfig returns the standard laptop-scale configuration.
func DefaultConfig() Config {
	return Config{
		Packages:      3000,
		Installations: popcon.PaperTotalInstallations,
		Seed:          1504, // Ubuntu 15.04
	}
}

// Corpus is a generated synthetic repository plus its ground truth.
type Corpus struct {
	Cfg    Config
	Model  *Model
	Repo   *apt.Repository
	Survey *popcon.Survey
	// Planted is the ground-truth API footprint per package: what the
	// generator encoded into the package's machine code. The analysis
	// pipeline must recover it.
	Planted map[string]footprint.Set
	// InterpreterPkg maps an interpreter program name (from a shebang) to
	// the package shipping it.
	InterpreterPkg map[string]string
	// LibraryPaths lists the file paths of shared libraries, package by
	// package, so the study can register them with the resolver first.
	LibraryPaths []string

	// emitted holds, for packages a release series re-emitted, the
	// planted set their binaries were emitted from (Planted completes it
	// with what libc reaches implicitly); later drifts start from it.
	emitted map[string]footprint.Set
}

func sortStrings(ss []string) { sort.Strings(ss) }

// Generate builds the corpus.
func Generate(cfg Config) (*Corpus, error) {
	if cfg.Packages <= 0 {
		cfg = DefaultConfig()
	}
	if cfg.Installations <= 0 {
		cfg.Installations = popcon.PaperTotalInstallations
	}
	m := NewModel()
	rng := rand.New(rand.NewSource(cfg.Seed))

	pkgs := buildPopulation(m, cfg.Packages, rng)

	// Plant API usage.
	pl := newPlanter(m, pkgs)
	pl.plantSyscalls()
	pl.plantOpcodes()
	pl.plantPseudoFiles()
	pl.plantLibcSyms()

	// libc6's own footprint is the base set (its ldconfig utility), still
	// shallow enough that depending on libc6 never deepens a package.
	libc6FP := make(footprint.Set)
	for i := range m.Syscalls {
		if m.Syscalls[i].Band == BandBase {
			libc6FP.Add(linuxapi.Sys(m.Syscalls[i].Name))
		}
	}
	pl.planted["libc6"] = libc6FP

	c := &Corpus{
		Cfg:            cfg,
		Model:          m,
		Repo:           apt.NewRepository(),
		Survey:         popcon.NewSurvey(cfg.Installations),
		Planted:        pl.planted,
		InterpreterPkg: map[string]string{},
	}

	em := newEmitter(m, rand.New(rand.NewSource(cfg.Seed+1)))
	em.bulk = cfg.CodeBulk

	// Stable emission order: libc6 first (libraries must exist before the
	// study analyzes importers), then everything else by name.
	ordered := append([]*pkgInfo(nil), pkgs...)
	sort.Slice(ordered, func(i, j int) bool {
		if (ordered[i].name == "libc6") != (ordered[j].name == "libc6") {
			return ordered[i].name == "libc6"
		}
		return ordered[i].name < ordered[j].name
	})

	// Interpreter resolution must exist before any package (notably the
	// script-only ones) is emitted.
	for _, p := range ordered {
		if p.interpreter == "" {
			continue
		}
		c.InterpreterPkg[p.interpreter] = p.name
		// Common aliases in shebangs.
		switch p.interpreter {
		case "python":
			c.InterpreterPkg["python2"] = p.name
			c.InterpreterPkg["python2.7"] = p.name
		case "sh":
			c.InterpreterPkg["dash"] = p.name
		}
	}

	ordinaryIdx := 0
	var prevOrdinary []string
	for _, p := range ordered {
		c.Survey.Set(p.name, int64(p.frac*float64(cfg.Installations)+0.5))

		pkg := &apt.Package{Name: p.name, Version: "1.0-1", Section: "misc"}
		planted := c.Planted[p.name]

		switch {
		case p.name == "libc6":
			files, err := em.buildLibcFamily()
			if err != nil {
				return nil, err
			}
			pkg.Files = files
			pkg.Section = "libs"
		default:
			if err := emitRegular(c, em, p, pkg, planted, &ordinaryIdx, &prevOrdinary); err != nil {
				return nil, err
			}
		}

		for _, f := range pkg.Files {
			if len(f.Data) > 4 && f.Data[0] == 0x7F {
				if cls, _ := classifyQuick(f.Data); cls == "lib" {
					c.LibraryPaths = append(c.LibraryPaths, p.name+":"+f.Path)
				}
			}
		}
		if err := c.Repo.Add(pkg); err != nil {
			return nil, err
		}
	}

	// Attach interpreted scripts (Figure 1's non-ELF executables). All
	// scripts live in interpreter packages or the script-only demo
	// packages, so script-to-interpreter footprint attribution (§2.3)
	// never distorts an unrelated package's calibrated footprint.
	scriptHost := map[string][]string{
		"sh":     {"dash", "shell-scripts-demo"},
		"bash":   {"bash"},
		"python": {"python2.7", "python-app-demo"},
		"perl":   {"perl"},
		"ruby":   {"ruby"},
		"awk":    {"debianutils"},
	}
	for _, sf := range em.flushScripts() {
		hosts := scriptHost[sf.interp]
		if len(hosts) == 0 {
			continue
		}
		host := hosts[sf.seq%len(hosts)]
		pkg := c.Repo.Get(host)
		if pkg == nil {
			continue
		}
		pkg.Files = append(pkg.Files, apt.File{
			Path: fmt.Sprintf("/usr/share/%s/script-%d.%s", host, sf.seq, sf.interp),
			Data: sf.data,
		})
	}
	// Script-only packages inherit their interpreter's ground truth.
	for _, p := range ordered {
		if p.scriptOnly {
			if ipkg := c.InterpreterPkg[p.scriptInterp]; ipkg != "" {
				c.Planted[p.name] = c.Planted[ipkg].Clone()
			}
		}
	}
	return c, nil
}

// classifyQuick distinguishes libs from execs without a full parse: our
// builder emits ET_DYN only for libraries.
func classifyQuick(data []byte) (string, error) {
	if len(data) < 18 {
		return "", fmt.Errorf("short")
	}
	if data[16] == 3 { // ET_DYN
		return "lib", nil
	}
	return "exec", nil
}

// emitRegular emits a non-libc package: executables, optional private or
// Table 1 libraries, scripts, and dependency edges.
func emitRegular(c *Corpus, em *emitter, p *pkgInfo, pkg *apt.Package,
	planted footprint.Set, ordinaryIdx *int, prevOrdinary *[]string) error {

	// Script-only packages ship no ELF binaries: their scripts are
	// attached after the main loop and their footprint is reconciled to
	// the interpreter's.
	if p.scriptOnly {
		pkg.Depends = append(pkg.Depends, c.InterpreterPkg[p.scriptInterp])
		return nil
	}

	// Static packages cannot import libc symbols; drop them from the
	// ground truth so planted == measurable.
	if p.static {
		for api := range planted {
			if api.Kind == linuxapi.KindLibcSym {
				delete(planted, api)
			}
		}
	}

	apis := planted.Sorted()

	// Table 1 packages ship their mediating library.
	for _, soname := range p.shipsLib {
		data, err := em.mediatedLib(soname)
		if err != nil {
			return err
		}
		pkg.Files = append(pkg.Files, apt.File{
			Path: "/usr/lib/x86_64-linux-gnu/" + soname, Data: data,
		})
		em.elfFiles++
	}

	// Nearly every package ships a private shared library holding its raw
	// system calls (Figure 1: 52%% of ELF binaries are shared libraries);
	// the executable reaches them through an import, exercising the
	// cross-binary closure.
	privateLib := ""
	var privateNums []int
	isOrdinary := !p.special && !p.essential && p.interpreter == ""
	if !p.static {
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
			// Even syscall-light packages ship helper libraries; give the
			// library a base call so its code is non-trivial.
			privateNums = []int{1} // write
		}
		privateLib = "lib" + p.name + ".so.0"
		data, err := em.buildPrivateLib(p.name, privateLib, privateNums)
		if err != nil {
			return err
		}
		pkg.Files = append(pkg.Files, apt.File{
			Path: fmt.Sprintf("/usr/lib/%s/%s", p.name, privateLib),
			Data: data,
		})
		em.elfFiles++
	}
	// APIs for the main executable: everything except what the private
	// library already covers.
	execAPIs := apis
	if privateLib != "" {
		inLib := make(map[int]bool, len(privateNums))
		for _, n := range privateNums {
			inLib[n] = true
		}
		execAPIs = execAPIs[:0:0]
		for _, api := range apis {
			if api.Kind == linuxapi.KindSyscall {
				if d := linuxapi.SyscallByName(api.Name); d != nil && inLib[d.Num] {
					continue
				}
			}
			execAPIs = append(execAPIs, api)
		}
	}

	data, syms, err := em.buildExec(p.name, execAPIs, p.static, privateLib)
	if err != nil {
		return fmt.Errorf("package %s: %w", p.name, err)
	}
	for _, sym := range syms {
		planted.Add(linuxapi.LibcSym(sym))
	}
	pkg.Files = append(pkg.Files, apt.File{Path: "/usr/bin/" + p.name, Data: data})
	em.elfFiles++

	// A second, smaller executable for every third package (the corpus
	// averages >1 executable per package like the real archive).
	if isOrdinary && *ordinaryIdx%3 == 0 && !p.static {
		sub := apis
		if len(sub) > 4 {
			sub = sub[:len(sub)/2]
		}
		data, syms, err := em.buildExec(p.name+"-helper", sub, false, "")
		if err != nil {
			return err
		}
		for _, sym := range syms {
			planted.Add(linuxapi.LibcSym(sym))
		}
		pkg.Files = append(pkg.Files, apt.File{
			Path: "/usr/bin/" + p.name + "-helper", Data: data,
		})
		em.elfFiles++
	}

	// Dependencies: everything needs libc6; mediated users need the
	// library package; a sixth of ordinary packages depend on an earlier
	// (shallower-demand) ordinary package.
	if p.name != "libc6" && !p.static {
		pkg.Depends = append(pkg.Depends, "libc6")
	}
	switch p.name {
	case "pam-keyutil", "request-key-tools":
		pkg.Depends = append(pkg.Depends, "libkeyutils")
	}
	if isOrdinary {
		if *ordinaryIdx%6 == 5 && len(*prevOrdinary) > 0 {
			dep := (*prevOrdinary)[em.rng.Intn(len(*prevOrdinary))]
			pkg.Depends = append(pkg.Depends, dep)
		}
		*prevOrdinary = append(*prevOrdinary, p.name)
		*ordinaryIdx++
	}
	return nil
}
