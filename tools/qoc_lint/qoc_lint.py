#!/usr/bin/env python3
"""qoc_lint: repo-invariant linter for the qoc tree.

The repo has a handful of correctness contracts that no compiler flag or
unit test can enforce by itself -- they are properties of *which file
says what*. This linter makes them mechanical:

  kernel-flags        Every kernel-defining TU under src/sim/ (one that
                      defines `namespace qoc::sim::kernels`) must be
                      listed in CMakeLists.txt with a
                      set_source_files_properties stanza applying
                      QOC_KERNEL_FLAGS (-ffp-contract=off). A new kernel
                      TU that silently picks up default flags would
                      contract mul+add into FMA and break the bitwise
                      cross-mode dispatch contract (kernels.hpp).

  avx2-containment    AVX2 intrinsics (_mm256*/__m256*/immintrin.h) may
                      appear only in `*_avx2.cpp` TUs, and every such TU
                      must guard its body with `__AVX2__`. Intrinsics in
                      an unguarded TU either break non-AVX2 builds or,
                      worse, sneak SIMD into a TU the runtime dispatcher
                      does not gate on __builtin_cpu_supports.

  determinism         No wall-clock or entropy seeding in src/ or
                      include/: rand()/srand()/std::random_device/
                      time()/system_clock. The serving determinism
                      contract (submission-pinned PRNG streams,
                      replayable transpile traces) dies the moment any
                      code path draws from the environment.

  naked-threads       `std::thread` construction is confined to the
                      ThreadPool implementation and the serve lanes
                      (dispatcher + per-replica workers). Ad-hoc threads
                      bypass the pool's bounded-concurrency and
                      nested-submission guarantees. `std::thread::`
                      static queries (hardware_concurrency) are fine
                      anywhere.

  kernel-fma          Kernel TUs under src/sim/ must not hand-write FMA
                      (std::fma/__builtin_fma/_mm256_fmadd/-fmsub) or
                      re-enable contraction (#pragma STDC FP_CONTRACT,
                      fast-math). They are compiled with
                      -ffp-contract=off precisely so scalar, blocked and
                      SIMD modes perform identical IEEE arithmetic.

  raw-mutex           std::mutex / std::condition_variable /
                      std::lock_guard / std::unique_lock /
                      std::scoped_lock / std::shared_mutex appear only
                      inside include/qoc/common/mutex.hpp. Everything
                      else must use the annotated wrappers
                      (common::Mutex / MutexLock / UniqueLock / CondVar)
                      so clang -Wthread-safety sees every lock.

  obs-clock           steady_clock reads are confined to qoc::obs
                      (include/qoc/obs/, src/obs/). Library code that
                      wants a timestamp must go through obs::now() /
                      obs::now_ns() (or record into an obs metric), so
                      every clock read is auditable as pure observation
                      -- scattered steady_clock::now() calls are how
                      time leaks into control decisions and breaks the
                      determinism contract. Timeout *arithmetic* on
                      time_points/durations is fine; it is the
                      `steady_clock` spelling that is confined.

  backend-only-execution
                      The paper's layer (src/train, src/qml, src/vqe and
                      their headers) executes circuits only through a
                      backend::Backend, so it never constructs a
                      sim::Statevector or sim::BatchedStatevector. A
                      private simulator there is a second execution
                      engine: its draws, noise and inference counts
                      escape the backends' stream rule and
                      accounting. References and pointers to states
                      are fine. src/vqe/hamiltonian.cpp is exempt: it
                      holds the reference Hamiltonian::expectation that
                      tests compare the backends against.

Comments and string literals are stripped before pattern matching, so
documentation mentioning a forbidden construct does not trip the rules.

Usage:
  qoc_lint.py --root <repo-root>     lint a tree (exit 1 on violations)
  qoc_lint.py --self-test            run the linter against its seeded
                                     fixture tree and verify every rule
                                     fires exactly where expected
"""

import argparse
import os
import re
import sys

CPP_EXTENSIONS = (".cpp", ".hpp", ".h", ".cc", ".cxx")


def strip_comments_and_strings(text):
    """Remove //, /* */ comments and "..."/'...' literals, preserving
    newlines so violation line numbers stay accurate."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
        elif c == '"' or c == "'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                elif text[i] == "\n":
                    out.append("\n")  # unterminated literal; keep lines
                i += 1
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


class Violation:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)


def iter_sources(root, subdirs):
    for sub in subdirs:
        base = os.path.join(root, sub)
        for dirpath, _, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(CPP_EXTENSIONS):
                    yield os.path.join(dirpath, name)


def find_lines(pattern, text):
    """Yield 1-based line numbers where `pattern` matches `text`."""
    for m in re.finditer(pattern, text):
        yield text.count("\n", 0, m.start()) + 1


def relpath(root, path):
    return os.path.relpath(path, root).replace(os.sep, "/")


# ---------------------------------------------------------------------------
# Rules. Each takes (root, files) where files is {relpath: stripped_text},
# and yields Violations.
# ---------------------------------------------------------------------------

KERNEL_NAMESPACE = re.compile(r"namespace\s+qoc::sim::kernels\b")


def kernel_tus(files):
    return [p for p, text in files.items()
            if p.startswith("src/sim/") and p.endswith(".cpp")
            and KERNEL_NAMESPACE.search(text)]


def rule_kernel_flags(root, files):
    cmake_path = os.path.join(root, "CMakeLists.txt")
    try:
        with open(cmake_path, "r", encoding="utf-8", errors="replace") as f:
            cmake = f.read()
    except OSError:
        cmake = ""
    # One stanza per kernel TU:
    #   set_source_files_properties(src/sim/X.cpp
    #     PROPERTIES COMPILE_OPTIONS "${QOC_KERNEL...FLAGS}")
    for tu in kernel_tus(files):
        stanza = re.compile(
            r"set_source_files_properties\s*\(\s*" + re.escape(tu) +
            r"\s+PROPERTIES\s+COMPILE_OPTIONS\s+\"[^\"]*QOC_KERNEL\w*FLAGS",
            re.S)
        if not stanza.search(cmake):
            yield Violation(
                "kernel-flags", tu, 1,
                "kernel-defining TU (defines namespace qoc::sim::kernels) "
                "has no QOC_KERNEL_FLAGS set_source_files_properties stanza "
                "in CMakeLists.txt; it would compile with FP contraction on")


AVX2_USE = re.compile(r"_mm256_\w+|__m256\w*|\bimmintrin\.h\b|_mm_\w+")


def rule_avx2_containment(root, files):
    for path, text in files.items():
        uses = list(find_lines(AVX2_USE, text))
        if not uses:
            continue
        name = os.path.basename(path)
        if not name.endswith("_avx2.cpp"):
            yield Violation(
                "avx2-containment", path, uses[0],
                "AVX2 intrinsics outside a *_avx2.cpp TU; SIMD must live "
                "in dispatch-guarded kernel TUs only")
        elif "__AVX2__" not in text:
            yield Violation(
                "avx2-containment", path, uses[0],
                "*_avx2.cpp TU uses intrinsics without an __AVX2__ guard; "
                "non-AVX2 builds of this TU will not compile")


DETERMINISM = [
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
    (re.compile(r"\bsrand\s*\("), "srand()"),
    (re.compile(r"(?<![\w:])rand\s*\("), "rand()"),
    (re.compile(r"(?<![\w:])time\s*\("), "time()"),
    (re.compile(r"\bsystem_clock\b"), "system_clock"),
]


def rule_determinism(root, files):
    for path, text in files.items():
        for pattern, label in DETERMINISM:
            for line in find_lines(pattern, text):
                yield Violation(
                    "determinism", path, line,
                    label + " draws from the environment; results must be "
                    "a pure function of the submission (seed PRNG streams "
                    "from pinned identifiers instead)")


THREAD_ALLOWLIST = {
    "include/qoc/common/thread_pool.hpp",
    "src/common/thread_pool.cpp",
    "src/serve/serve.cpp",
}
NAKED_THREAD = re.compile(r"\bstd::thread\b(?!\s*::)")


def rule_naked_threads(root, files):
    for path, text in files.items():
        if path in THREAD_ALLOWLIST:
            continue
        for line in find_lines(NAKED_THREAD, text):
            yield Violation(
                "naked-threads", path, line,
                "std::thread outside ThreadPool/serve lanes; route work "
                "through common::ThreadPool so concurrency stays bounded")


KERNEL_FMA = [
    (re.compile(r"\bstd::fma\b|(?<![\w:])fma\s*\("), "explicit fma"),
    (re.compile(r"__builtin_fma\w*"), "__builtin_fma"),
    (re.compile(r"_mm256_fmadd\w*|_mm256_fmsub\w*|_mm256_fnmadd\w*"),
     "AVX2 FMA intrinsic"),
    (re.compile(r"#\s*pragma\s+STDC\s+FP_CONTRACT\s+ON"),
     "#pragma STDC FP_CONTRACT ON"),
    (re.compile(r"fast[-_]math"), "fast-math"),
]


def rule_kernel_fma(root, files):
    for path, text in files.items():
        if not (path.startswith("src/sim/") and path.endswith(".cpp")):
            continue
        for pattern, label in KERNEL_FMA:
            for line in find_lines(pattern, text):
                yield Violation(
                    "kernel-fma", path, line,
                    label + " in a kernel TU; kernel TUs are built with "
                    "-ffp-contract=off so every dispatch mode performs "
                    "identical IEEE arithmetic -- no FMA, contracted or "
                    "hand-written")


MUTEX_HOME = "include/qoc/common/mutex.hpp"
RAW_MUTEX = re.compile(
    r"\bstd::(?:mutex|shared_mutex|timed_mutex|recursive_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock)\b")


def rule_raw_mutex(root, files):
    for path, text in files.items():
        if path == MUTEX_HOME:
            continue
        for line in find_lines(RAW_MUTEX, text):
            yield Violation(
                "raw-mutex", path, line,
                "raw standard-library lock primitive; use the annotated "
                "wrappers in qoc/common/mutex.hpp (common::Mutex, "
                "MutexLock, UniqueLock, CondVar) so clang -Wthread-safety "
                "sees the lock")


OBS_CLOCK_HOME_PREFIXES = ("include/qoc/obs/", "src/obs/")
OBS_CLOCK = re.compile(r"\bsteady_clock\b")


def rule_obs_clock(root, files):
    for path, text in files.items():
        if path.startswith(OBS_CLOCK_HOME_PREFIXES):
            continue
        for line in find_lines(OBS_CLOCK, text):
            yield Violation(
                "obs-clock", path, line,
                "steady_clock outside qoc::obs; read time through "
                "obs::now()/obs::now_ns() (qoc/obs/clock.hpp) so every "
                "clock read is auditable as pure observation")


ENGINE_LAYERS = ("src/train/", "src/qml/", "src/vqe/",
                 "include/qoc/train/", "include/qoc/qml/",
                 "include/qoc/vqe/")
ENGINE_EXEMPT = {"src/vqe/hamiltonian.cpp"}
# A state type named as a value (a variable, member, temporary or
# container element), not as a reference, pointer or scope.
SIM_STATE = re.compile(
    r"\bsim::(?:Statevector|BatchedStatevector)\b"
    r"(?!\s*(?:[&*]|::))")


def rule_backend_only_execution(root, files):
    for path, text in files.items():
        if not path.startswith(ENGINE_LAYERS) or path in ENGINE_EXEMPT:
            continue
        for line in find_lines(SIM_STATE, text):
            yield Violation(
                "backend-only-execution", path, line,
                "simulator state constructed outside a backend; execute "
                "through backend::Backend (run_batch / expect_batch) so "
                "draws follow the stream rule and every execution is an "
                "inference")


RULES = [
    rule_kernel_flags,
    rule_avx2_containment,
    rule_determinism,
    rule_naked_threads,
    rule_kernel_fma,
    rule_raw_mutex,
    rule_obs_clock,
    rule_backend_only_execution,
]

RULE_NAMES = [
    "kernel-flags",
    "avx2-containment",
    "determinism",
    "naked-threads",
    "kernel-fma",
    "raw-mutex",
    "obs-clock",
    "backend-only-execution",
]


def lint(root):
    files = {}
    for path in iter_sources(root, ("src", "include")):
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            files[relpath(root, path)] = strip_comments_and_strings(f.read())
    violations = []
    for rule in RULES:
        violations.extend(rule(root, files))
    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    return violations


# ---------------------------------------------------------------------------
# Self-test: lint the seeded fixture tree and verify each rule fires on the
# file seeded for it -- and nowhere else.
# ---------------------------------------------------------------------------

EXPECTED_FIXTURE_HITS = {
    "kernel-flags": {"src/sim/fixture_kernel.cpp"},
    "avx2-containment": {"src/sim/fixture_simd_leak.cpp"},
    "determinism": {"src/backend/fixture_entropy.cpp",
                    "src/replay/fixture_wallclock.cpp"},
    "naked-threads": {"src/serve/fixture_adhoc_thread.cpp"},
    "kernel-fma": {"src/sim/fixture_kernel.cpp"},
    "raw-mutex": {"include/qoc/fixture/fixture_raw_lock.hpp"},
    "obs-clock": {"src/exec/fixture_raw_clock.cpp"},
    "backend-only-execution": {"src/vqe/fixture_private_engine.cpp"},
}


def self_test():
    fixtures = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "fixtures")
    violations = lint(fixtures)
    hits = {}
    for v in violations:
        hits.setdefault(v.rule, set()).add(v.path)
    ok = True
    for rule in RULE_NAMES:
        expected = EXPECTED_FIXTURE_HITS[rule]
        got = hits.get(rule, set())
        if got == expected:
            print("self-test: rule %-22s fires on %s: OK" %
                  (rule, ", ".join(sorted(expected))))
        else:
            ok = False
            print("self-test: rule %-22s FAILED: expected %s, got %s" %
                  (rule, sorted(expected), sorted(got)))
    unexpected = set(hits) - set(RULE_NAMES)
    if unexpected:
        ok = False
        print("self-test: unknown rules fired: %s" % sorted(unexpected))
    if not ok:
        for v in violations:
            print("  " + str(v))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", help="repository root to lint")
    parser.add_argument("--self-test", action="store_true",
                        help="lint the seeded fixture tree and verify "
                             "every rule fires where expected")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.root:
        parser.error("--root is required unless --self-test is given")
    violations = lint(os.path.abspath(args.root))
    for v in violations:
        print(v)
    if violations:
        print("qoc_lint: %d violation(s)" % len(violations))
        return 1
    print("qoc_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
