#!/usr/bin/env python3
"""List the library functions that no shipped binary keeps.

    python3 scripts/api_census.py BUILD_DIR

BUILD_DIR is a build of this repository configured with

    cmake -B BUILD_DIR -DCMAKE_BUILD_TYPE=Census \
        -DCMAKE_CXX_FLAGS="-O0 -fno-inline -ffunction-sections" \
        -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections"

and built. The script builds nothing itself. Every strong function (`nm`
type T) that one of the src/ libraries defines and that no tool, example or
bench binary keeps after --gc-sections is reached only by tests. The
script prints each such symbol (demangled) and exits 1 when one is missing
from KEEP below, so library surface without a user cannot grow back
unnoticed. Counts are of mangled symbols: a constructor's C1 and C2
variants count twice.
"""
import os
import subprocess
import sys

# Test-only functions that stay, by demangled name, each with its reason.
# Only three kinds belong here: the runtime API that translated (generated)
# programs call, a reference that tests compare results against, and
# resets of process-global state between tests.
KEEP = {
    "cascabel::rt::initialize(char const*, cascabel::rt::Options)":
        "emitted into translated programs by cascabel codegen",
    "cascabel::rt::initialized()":
        "runtime API translated programs link against, for their own code (not emitted)",
    "cascabel::rt::register_variant(std::__cxx11::basic_string<char, std::char_traits<char>, std::allocator<char> > const&, std::__cxx11::basic_string<char, std::char_traits<char>, std::allocator<char> > const&, std::vector<std::__cxx11::basic_string<char, std::char_traits<char>, std::allocator<char> >, std::allocator<std::__cxx11::basic_string<char, std::char_traits<char>, std::allocator<char> > > > const&, starvm::DeviceKind, std::function<void (starvm::ExecContext const&)>, std::function<double (std::vector<starvm::BufferView, std::allocator<starvm::BufferView> > const&)>, starvm::ErrorModel)":
        "emitted into translated programs by cascabel codegen",
    "cascabel::rt::execute(char const*, char const*, std::vector<cascabel::rt::Arg, std::allocator<cascabel::rt::Arg> >)":
        "emitted into translated programs by cascabel codegen",
    "cascabel::rt::wait()":
        "emitted into translated programs by cascabel codegen",
    "cascabel::rt::stats()":
        "runtime API translated programs link against, for their own code (not emitted)",
    "cascabel::rt::shutdown()":
        "resets the process-global runtime context (tests; translated programs at exit)",
    "kernels::lu_residual(unsigned long, double const*, unsigned long, double const*, unsigned long)":
        "reference residual the LU tests check factorizations against",
    "obs::Tracer::clear()":
        "resets the process-global tracer between tests",
    "obs::Registry::reset()":
        "resets the process-global metrics registry between tests",
}

BINARY_DIRS = ("src/tools", "examples", "bench")


def text_symbols(path):
    """Mangled names of the global functions (nm type T) defined in path."""
    out = subprocess.run(["nm", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    symbols = set()
    for line in out.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[1] == "T":
            symbols.add(fields[2])
    return symbols


def demangle(symbols):
    out = subprocess.run(["c++filt"], input="\n".join(symbols), check=True,
                         capture_output=True, text=True).stdout
    return dict(zip(symbols, out.splitlines()))


def find(build, predicate, dirs):
    found = []
    for top in dirs:
        for root, _, files in os.walk(os.path.join(build, top)):
            if "CMakeFiles" in root:
                continue
            found += [os.path.join(root, f) for f in files
                      if predicate(os.path.join(root, f))]
    return sorted(found)


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    build = sys.argv[1]
    libraries = find(build, lambda p: p.endswith(".a"), ("src",))
    binaries = find(build, lambda p: os.access(p, os.X_OK) and "." not in
                    os.path.basename(p), BINARY_DIRS)
    if not libraries or not binaries:
        print(f"api_census: no libraries or binaries under {build}",
              file=sys.stderr)
        return 2

    defined = set().union(*(text_symbols(p) for p in libraries))
    kept = set().union(*(text_symbols(p) for p in binaries))
    dead = sorted(defined - kept)
    names = demangle(dead) if dead else {}

    unlisted = 0
    for symbol in dead:
        name = names[symbol]
        reason = KEEP.get(name)
        if reason is None:
            unlisted += 1
            print(f"UNLISTED  {name}")
        else:
            print(f"kept      {name}  ({reason})")
    stale = sorted(set(KEEP) - set(names.values()))
    for name in stale:
        print(f"note: keep-list entry is reached by a binary now: {name}")
    print(f"{len(dead)} of {len(defined)} library functions in "
          f"{len(libraries)} libraries are reached by none of "
          f"{len(binaries)} binaries; {unlisted} not on the keep list")
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
