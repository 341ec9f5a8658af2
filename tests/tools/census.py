#!/usr/bin/env python3
"""Holds two censuses of the library's surface at their current values.

Knob census: every data member of a `*Config` struct in `src/**/*.h`, minus
members that are themselves `*Config` structs and static members.  It fails
above KNOB_LIMIT, so a new knob first retires an unused one.

Symbol census: the functions the `lla_*` libraries export (`nm` type T)
that a test object references but no library, tool, bench or example
object does.  Names whose function perfbench/cc calls are programs' names
too and are dropped.  Every other name must be on KEEP, the test seams and
reference forms kept on purpose; any other name fails, since no program
calls it.

Run it on a build tree whose objects are current (ctest runs it after the
build):

  census.py --source-dir . --build-dir build [--nm nm]
"""

import argparse
import glob
import os
import re
import subprocess
import sys

KNOB_LIMIT = 71

KEEP = {
    # Fault injection.
    "lla::runtime::Coordinator::CrashEndpoint(lla::StrongId<lla::TaskTag>)",
    "lla::runtime::Coordinator::RestartEndpoint(lla::StrongId<lla::TaskTag>)",
    "lla::runtime::Coordinator::PartitionController("
    "lla::StrongId<lla::TaskTag>, double)",
    "lla::runtime::Coordinator::PartitionResource("
    "lla::StrongId<lla::ResourceTag>, double)",
    # Observers.
    "lla::runtime::TaskController::mu_seen("
    "lla::StrongId<lla::TaskTag>, lla::StrongId<lla::ResourceTag>) const",
    "lla::runtime::TaskController::mu_epoch_seen("
    "lla::StrongId<lla::TaskTag>, lla::StrongId<lla::ResourceTag>) const",
    "lla::net::InProcessBus::DeliverNext()",
    "lla::net::InProcessBus::IsBlackedOut(unsigned int) const",
    "lla::net::Outbox::message(unsigned long) const",
    "lla::obs::RingBufferTraceSink::OnIteration("
    "lla::obs::IterationTrace const&)",
    # Reference forms the optimized paths are checked against.
    "lla::PriceUpdater::UpdateResourcePrices(std::vector<double, "
    "std::allocator<double> > const&, lla::StepSchedule const&, "
    "lla::PriceVector*) const",
    "lla::PriceUpdater::UpdatePathPrices(std::vector<double, "
    "std::allocator<double> > const&, lla::StepSchedule const&, "
    "lla::PriceVector*) const",
    "lla::BarrierSolver::FindInteriorPoint() const",
    "lla::BarrierSolver::SolveFrom(std::vector<double, "
    "std::allocator<double> > const&) const",
    "lla::TaskUtility(lla::Workload const&, lla::StrongId<lla::TaskTag>, "
    "std::vector<double, std::allocator<double> > const&, "
    "lla::UtilityVariant)",
    "lla::baselines::Slice(lla::Workload const&, "
    "lla::baselines::SlicingPolicy)",
    # Paper Sec. 2.1's percentile plan, driven end to end by
    # stochastic_loop_test.
    "lla::correction::PlanSubtaskPercentiles(lla::Workload const&, double)",
    "lla::correction::PlanSubtaskPercentiles(lla::Workload const&, "
    "std::vector<double, std::allocator<double> > const&)",
    # Test labels.
    "lla::ToString(lla::StepPolicyKind)",
    # nm artefacts: calls through the PsScheduler base class or within one
    # file reference no symbol.
    "lla::ThreadPool::ParallelFor(unsigned long, int, "
    "lla::FunctionRef<void (unsigned long, unsigned long)>)",
    "lla::sim::GpsScheduler::NextCompletionMs() const",
    "lla::sim::SfsScheduler::AddFlow(double, bool)",
    "lla::sim::SfsScheduler::AdvanceTo(double, std::function<void "
    "(unsigned long, double)> const&)",
    "lla::sim::SfsScheduler::Enqueue(int, lla::sim::Job)",
}

# ---------------------------------------------------------------- knobs ----

CONFIG_STRUCT = re.compile(r"\bstruct\s+(\w+Config)\s*\{")
ACCESS = re.compile(r"^(public|private|protected)\s*:\s*")
NOT_A_MEMBER = ("static ", "using ", "friend ", "typedef ", "struct ",
                "enum ", "class ", "template")


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def matching_brace(text, open_at):
    depth = 0
    for i in range(open_at, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    raise ValueError("unbalanced braces")


def head_of(declaration):
    """A declaration's text before its initializer, template arguments
    removed, so a function shows a parenthesis and a data member does not."""
    head = re.split(r"[={]", declaration, maxsplit=1)[0]
    while re.search(r"<[^<>]*>", head):
        head = re.sub(r"<[^<>]*>", "", head)
    return " ".join(head.split())


def declarations(body):
    """The struct body's top-level declarations, access labels stripped;
    member function bodies and nested type definitions are dropped, brace
    initializers kept."""
    out, current, i = [], "", 0
    while i < len(body):
        if body[i] == "{":
            end = matching_brace(body, i)
            current = ACCESS.sub("", current.strip())
            if "(" in head_of(current) or current.startswith(NOT_A_MEMBER):
                current, i = "", end + 1
                if body[i:i + 1] == ";":
                    i += 1
                continue
            current += body[i:end + 1]
            i = end + 1
        elif body[i] == ";":
            out.append(ACCESS.sub("", current.strip()))
            current, i = "", i + 1
        else:
            current += body[i]
            i += 1
    return out


def config_members(source_dir):
    members = []
    for header in sorted(glob.glob(os.path.join(source_dir, "src", "**",
                                                "*.h"), recursive=True)):
        with open(header) as f:
            text = strip_comments(f.read())
        for match in CONFIG_STRUCT.finditer(text):
            open_at = match.end() - 1
            body = text[open_at + 1:matching_brace(text, open_at)]
            for declaration in declarations(body):
                head = head_of(declaration)
                if not head or head.startswith(NOT_A_MEMBER) or "(" in head:
                    continue  # a static member, a type or a function
                words = re.findall(r"\w+", head)
                if len(words) < 2 or words[-2].endswith("Config"):
                    continue  # a nested *Config struct
                members.append("%s::%s" % (match.group(1), words[-1]))
    return members


# -------------------------------------------------------------- symbols ----


DEFINED = (["--defined-only"], re.compile(r"^[0-9a-f]+ T (.*)$"))
UNDEFINED = (["-u"], re.compile(r"^\s*U (.*)$"))


def nm_names(nm, files, kind):
    """The demangled names `nm` lists in `files` for DEFINED or UNDEFINED."""
    flags, line = kind
    names = set()
    for start in range(0, len(files), 200):
        batch = files[start:start + 200]
        out = subprocess.run([nm, "-C", *flags, *batch], capture_output=True,
                             text=True, check=True).stdout
        names.update(m.group(1) for m in map(line.match, out.splitlines())
                     if m)
    return names


def objects(build_dir, subdir):
    return sorted(glob.glob(os.path.join(build_dir, subdir, "**", "*.o"),
                            recursive=True))


def perfbench_calls(source_dir):
    calls = set()
    for path in glob.glob(os.path.join(source_dir, "perfbench", "cc", "*")):
        with open(path) as f:
            calls.update(re.findall(r"\b(\w+)\s*\(", strip_comments(f.read())))
    return calls


def function_name(symbol):
    qualified = re.sub(r"\[abi:\w+\]", "", symbol.split("(", 1)[0])
    return qualified.rsplit("::", 1)[-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--source-dir", required=True)
    parser.add_argument("--build-dir", required=True)
    parser.add_argument("--nm", default="nm")
    args = parser.parse_args()

    members = config_members(args.source_dir)
    print("knob census: %d config fields (limit %d)" % (len(members),
                                                         KNOB_LIMIT))
    for member in members:
        print("  " + member)
    ok = len(members) <= KNOB_LIMIT
    if not ok:
        print("FAIL: retire a config field into a named constant, or raise "
              "KNOB_LIMIT with the reason")

    libraries = sorted(glob.glob(os.path.join(args.build_dir, "src", "*",
                                              "liblla_*.a")))
    test_objects = objects(args.build_dir, "tests")
    if not libraries or not test_objects:
        print("FAIL: no lla_* libraries or test objects under %s"
              % args.build_dir)
        return 1
    defined = nm_names(args.nm, libraries, DEFINED)
    tested = nm_names(args.nm, test_objects, UNDEFINED)
    programs = sum((objects(args.build_dir, d)
                    for d in ("tools", "bench", "examples")), [])
    called = nm_names(args.nm, programs + libraries, UNDEFINED)
    census = sorted((defined & tested) - called)
    perfbench = perfbench_calls(args.source_dir)

    print("\nsymbol census: %d exported functions only tests reference"
          % len(census))
    unlisted = 0
    for symbol in census:
        if function_name(symbol) in perfbench:
            print("  perfbench  " + symbol)
        elif symbol in KEEP:
            print("  kept       " + symbol)
        else:
            print("  FAIL       " + symbol)
            unlisted += 1
    if unlisted:
        print("FAIL: %d exported for tests alone; delete each with its "
              "tests, or move it to a tests/ helper" % unlisted)
    return 0 if ok and not unlisted else 1


if __name__ == "__main__":
    sys.exit(main())
