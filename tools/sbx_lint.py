#!/usr/bin/env python3
"""sbx_lint: project invariant linter.

Enforces the determinism and locking conventions no off-the-shelf tool
knows about. Bit-identical results at any thread count rest on every
source of nondeterminism being banished from the result paths; this
linter turns those conventions from review checklist items into a ctest.

Rules (all scoped to checked directories, see RULES):

  wallclock       src/{spambayes,core,eval,serve} must not draw entropy
                  or wall-clock time: no rand()/srand()/random_device, no
                  time()/system_clock/gettimeofday/localtime. Randomness
                  comes only from util::random forked streams (and
                  steady_clock is fine — it is monotonic and never feeds
                  results). serve is in scope since PR 9: replication
                  timers (ship deadlines, backoff, ack waits) must be
                  steady_clock-based deadlines, or failover behavior
                  changes under clock steps.
  unordered-iter  no range-for over an unordered_map/unordered_set in
                  the result paths: iteration order varies across
                  libstdc++ versions and hash seeds, so anything it
                  feeds (ResultDoc, tables, serializers) would too.
                  Point lookups (.find/.count/.at) are fine.
  float-format    float formatting lives in the audited round-trip
                  helpers (eval/result_doc.cpp, eval/attack_axis.cpp)
                  only; ad-hoc snprintf("%f")/to_chars/setprecision
                  elsewhere would fork the JSON/CSV float spelling.
  process-escape  no system()/popen()/tmpnam()/mktemp() anywhere in
                  src/ — experiments must be reproducible from the
                  binary alone, and tmpnam/mktemp are unsafe.
  lock-comment    a "caller holds the lock" comment must sit on a
                  declaration that carries SBX_REQUIRES(): prose and
                  annotation drifting apart is how locking bugs sneak
                  past review.
  raw-sync        no raw std::mutex / std::lock_guard / std::scoped_lock
                  / std::unique_lock / std::condition_variable in src/:
                  locking goes through the annotated, RANKED util::
                  wrappers (util/thread_annotations.h), or it is
                  invisible to clang TSA, the lock-rank tracker, AND
                  tools/sbx_lockgraph.py at once.
  intern-sites    only the tokenizer, the interner itself and the SBXDB
                  loader (token_db.cpp) may call .intern() or
                  intern_tokens() in src/: every other path looks tokens
                  up (find), so what can grow the process-global
                  interner stays a short, reviewed list. An allowlist,
                  not allow-markers: a new growth site means editing
                  INTERN_SITE_ALLOWLIST.
  tsan-supp       every suppression in tests/tsan.supp needs a comment
                  block with a "Justification:" line — suppressions
                  without a reason rot into "ignore all races here".

A line may opt out (except from intern-sites) with an explanation:

    code();  // sbx-lint: allow(rule-name): why this one is safe

The marker without a reason does not count.

Usage:
  tools/sbx_lint.py [--root DIR]   lint the tree (exit 1 on violations)
  tools/sbx_lint.py --json         same, violations as a JSON array on
                                   stdout (rule, file, line, message)
  tools/sbx_lint.py --self-test    run every rule against its fixtures
"""

import argparse
import json
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Directories whose outputs must be bit-identical at any thread count.
RESULT_PATH_DIRS = ("src/spambayes", "src/core", "src/eval")
# Result paths plus the serving/replication layer: its timers (ship
# deadlines, backoff, group-commit ack waits) must be monotonic, but its
# telemetry printfs are not result formatting, so only the wallclock rule
# widens to it.
WALLCLOCK_DIRS = RESULT_PATH_DIRS + ("src/serve",)
ALL_SRC_DIRS = ("src",)

# Files allowed to format floats: the two audited round-trip helpers.
FLOAT_FORMAT_ALLOWLIST = (
    "src/eval/result_doc.cpp",
    "src/eval/attack_axis.cpp",
)

SOURCE_EXTENSIONS = (".h", ".cpp", ".cc", ".hpp")

ALLOW_RE = re.compile(r"sbx-lint:\s*allow\(([a-z-]+)\):\s*\S")


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)

    def as_dict(self):
        """The --json spelling (stable keys: CI renders these as GitHub
        annotations)."""
        return {"rule": self.rule, "file": self.path, "line": self.line,
                "message": self.message}


def strip_comments_and_strings(text):
    """Blanks comments and string/char literals, preserving line structure.

    Lets the code-pattern rules match real code without tripping on a
    banned identifier mentioned in a comment or a log message.
    """
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                state = "string"
                out.append(" ")
                i += 1
            elif c == "'":
                # A quote straight after an alphanumeric is a digit
                # separator (10'000) or part of a suffix, not a char
                # literal opening.
                if i > 0 and (text[i - 1].isalnum() or text[i - 1] == "_"):
                    out.append(" ")
                    i += 1
                else:
                    state = "char"
                    out.append(" ")
                    i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # string or char literal
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


def allowed(raw_lines, line_no, rule):
    """True when `line_no` (1-based) or the line above carries a matching
    allow-marker with a reason."""
    for idx in (line_no - 1, line_no - 2):
        if 0 <= idx < len(raw_lines):
            m = ALLOW_RE.search(raw_lines[idx])
            if m is not None and m.group(1) == rule:
                return True
    return False


# --- wallclock ---------------------------------------------------------------

WALLCLOCK_PATTERNS = [
    (re.compile(r"\b(?:std::)?s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bsystem_clock\b"), "system_clock (wall clock)"),
    (re.compile(r"\bhigh_resolution_clock\b"),
     "high_resolution_clock (may alias the wall clock)"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"\b(?:std::)?(?:local|gm)time(?:_r)?\s*\("),
     "localtime()/gmtime()"),
    (re.compile(r"(?<![\w:.>])(?:std::)?time\s*\(\s*(?:NULL|nullptr|0|&)"),
     "time()"),
]


def check_wallclock(path, raw_lines, code_lines):
    out = []
    for i, line in enumerate(code_lines, 1):
        for pattern, what in WALLCLOCK_PATTERNS:
            if pattern.search(line) and not allowed(raw_lines, i,
                                                    "wallclock"):
                out.append(Violation(
                    path, i, "wallclock",
                    "%s in a result path; determinism requires "
                    "util::random forked streams (steady_clock for "
                    "durations)" % what))
    return out


# --- unordered-iter ----------------------------------------------------------

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<.*>\s*&?\s*"
    r"(\w+)\s*(?:;|=|\{|\()")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;)]*:\s*(\w+)\s*\)")


def check_unordered_iter(path, raw_lines, code_lines):
    names = set()
    for line in code_lines:
        m = UNORDERED_DECL_RE.search(line)
        if m:
            names.add(m.group(1))
    out = []
    for i, line in enumerate(code_lines, 1):
        m = RANGE_FOR_RE.search(line)
        if m and m.group(1) in names and not allowed(raw_lines, i,
                                                     "unordered-iter"):
            out.append(Violation(
                path, i, "unordered-iter",
                "range-for over unordered container '%s': iteration "
                "order is not deterministic; collect into a sorted "
                "vector first" % m.group(1)))
    return out


# --- float-format ------------------------------------------------------------

FLOAT_FORMAT_PATTERNS = [
    (re.compile(r"\b(?:std::)?sn?printf\s*\("), "snprintf/sprintf"),
    (re.compile(r"\bto_chars\s*\("), "std::to_chars"),
    (re.compile(r"\bsetprecision\s*\("), "std::setprecision"),
]


def check_float_format(path, raw_lines, code_lines):
    rel = path.replace(os.sep, "/")
    if any(rel.endswith(allow) for allow in FLOAT_FORMAT_ALLOWLIST):
        return []
    out = []
    for i, line in enumerate(code_lines, 1):
        for pattern, what in FLOAT_FORMAT_PATTERNS:
            if pattern.search(line) and not allowed(raw_lines, i,
                                                    "float-format"):
                out.append(Violation(
                    path, i, "float-format",
                    "%s outside the audited round-trip helpers "
                    "(eval/result_doc.cpp, eval/attack_axis.cpp); float "
                    "spelling must have exactly one source of truth"
                    % what))
    return out


# --- process-escape ----------------------------------------------------------

PROCESS_ESCAPE_PATTERNS = [
    (re.compile(r"(?<![\w:.>])(?:std::)?system\s*\("), "system()"),
    (re.compile(r"\bpopen\s*\("), "popen()"),
    (re.compile(r"\btmpnam(?:_r)?\s*\("), "tmpnam()"),
    (re.compile(r"\bmktemp\s*\("), "mktemp()"),
]


def check_process_escape(path, raw_lines, code_lines):
    out = []
    for i, line in enumerate(code_lines, 1):
        for pattern, what in PROCESS_ESCAPE_PATTERNS:
            if pattern.search(line) and not allowed(raw_lines, i,
                                                    "process-escape"):
                out.append(Violation(
                    path, i, "process-escape",
                    "%s in library code; spawn nothing, name temp files "
                    "safely (mkstemp or a caller-provided dir)" % what))
    return out


# --- lock-comment ------------------------------------------------------------

LOCK_COMMENT_RE = re.compile(
    r"caller holds|lock (?:is )?held|mutex (?:is )?held|holding the lock",
    re.IGNORECASE)
# How far below the comment the annotated declaration may end.
LOCK_COMMENT_WINDOW = 6


def check_lock_comment(path, raw_lines, code_lines):
    del code_lines  # this rule reads the comments themselves
    out = []
    for i, line in enumerate(raw_lines, 1):
        if not LOCK_COMMENT_RE.search(line):
            continue
        if allowed(raw_lines, i, "lock-comment"):
            continue
        window = raw_lines[i - 1:i - 1 + LOCK_COMMENT_WINDOW]
        if not any("SBX_REQUIRES" in w for w in window):
            out.append(Violation(
                path, i, "lock-comment",
                "\"caller holds the lock\" prose without an "
                "SBX_REQUIRES() annotation within %d lines; the contract "
                "must be compiler-checked, not narrated"
                % LOCK_COMMENT_WINDOW))
    return out


# --- raw-sync ----------------------------------------------------------------

# The annotated wrappers themselves — the one place raw primitives live.
RAW_SYNC_ALLOWLIST = (
    "src/util/thread_annotations.h",
)

RAW_SYNC_PATTERNS = [
    (re.compile(r"\bstd::(?:recursive_|shared_|timed_|recursive_timed_)?"
                r"mutex\b"),
     "std::mutex family"),
    (re.compile(r"\bstd::lock_guard\b"), "std::lock_guard"),
    (re.compile(r"\bstd::scoped_lock\b"), "std::scoped_lock"),
    (re.compile(r"\bstd::unique_lock\b"), "std::unique_lock"),
    (re.compile(r"\bstd::condition_variable(?:_any)?\b"),
     "std::condition_variable"),
]


def check_raw_sync(path, raw_lines, code_lines):
    rel = path.replace(os.sep, "/")
    if any(rel.endswith(allow) for allow in RAW_SYNC_ALLOWLIST):
        return []
    out = []
    for i, line in enumerate(code_lines, 1):
        for pattern, what in RAW_SYNC_PATTERNS:
            if pattern.search(line) and not allowed(raw_lines, i,
                                                    "raw-sync"):
                out.append(Violation(
                    path, i, "raw-sync",
                    "%s bypasses the annotated, ranked util:: wrappers "
                    "(util/thread_annotations.h) — invisible to clang "
                    "TSA, the SBX_LOCK_RANK tracker, and sbx_lockgraph "
                    "alike; use util::Mutex/MutexLock/CondVar" % what))
    return out


# --- intern-sites ------------------------------------------------------------

# The files that may grow the process-global interner: the interner, the
# tokenizer's interning pass and the SBXDB loader.
INTERN_SITE_ALLOWLIST = (
    "src/spambayes/interner.h",
    "src/spambayes/interner.cpp",
    "src/spambayes/tokenizer.cpp",
    "src/spambayes/token_db.cpp",
)

INTERN_SITE_RE = re.compile(r"(?:\.|->)intern\s*\(|\bintern_tokens\s*\(")


def check_intern_sites(path, raw_lines, code_lines):
    del raw_lines  # no allow-markers: the allowlist is the only way out
    rel = path.replace(os.sep, "/")
    if any(rel.endswith(allow) for allow in INTERN_SITE_ALLOWLIST):
        return []
    return [Violation(path, i, "intern-sites",
                      "interns outside the tokenizer, the interner and "
                      "the SBXDB loader; look tokens up with find(), or "
                      "add the file to INTERN_SITE_ALLOWLIST in review")
            for i, line in enumerate(code_lines, 1)
            if INTERN_SITE_RE.search(line)]


# --- tsan-supp ---------------------------------------------------------------

def check_tsan_supp(path, raw_lines):
    out = []
    justified = False
    for i, line in enumerate(raw_lines, 1):
        stripped = line.strip()
        if not stripped:
            justified = False
            continue
        if stripped.startswith("#"):
            if "Justification:" in stripped:
                justified = True
            continue
        if not justified:
            out.append(Violation(
                path, i, "tsan-supp",
                "suppression without a preceding comment block carrying "
                "a 'Justification:' line"))
        # A justification covers its contiguous block of suppressions.
    return out


# --- driver ------------------------------------------------------------------

# rule name -> (checker, scope dirs). tsan-supp is special-cased.
RULES = {
    "wallclock": (check_wallclock, WALLCLOCK_DIRS),
    "unordered-iter": (check_unordered_iter, RESULT_PATH_DIRS),
    "float-format": (check_float_format, RESULT_PATH_DIRS),
    "process-escape": (check_process_escape, ALL_SRC_DIRS),
    "lock-comment": (check_lock_comment, ALL_SRC_DIRS),
    "raw-sync": (check_raw_sync, ALL_SRC_DIRS),
    "intern-sites": (check_intern_sites, ALL_SRC_DIRS),
}


def source_files(root, scope_dirs):
    for scope in scope_dirs:
        base = os.path.join(root, scope)
        for dirpath, _, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTENSIONS):
                    yield os.path.join(dirpath, name)


def lint_file(path, rules):
    with open(path, encoding="utf-8") as f:
        raw = f.read()
    raw_lines = raw.split("\n")
    code_lines = strip_comments_and_strings(raw).split("\n")
    out = []
    for checker in rules:
        out.extend(checker(path, raw_lines, code_lines))
    return out


def lint_tree(root):
    violations = []
    by_scope = {}
    for rule, (checker, scope) in RULES.items():
        del rule
        by_scope.setdefault(scope, []).append(checker)
    for scope, checkers in by_scope.items():
        for path in source_files(root, scope):
            violations.extend(lint_file(path, checkers))
    supp = os.path.join(root, "tests", "tsan.supp")
    if os.path.exists(supp):
        with open(supp, encoding="utf-8") as f:
            violations.extend(check_tsan_supp(supp, f.read().split("\n")))
    return violations


# --- self-test ---------------------------------------------------------------

def run_fixture(checker, fixture_path, is_supp=False):
    with open(fixture_path, encoding="utf-8") as f:
        raw = f.read()
    raw_lines = raw.split("\n")
    if is_supp:
        return check_tsan_supp(fixture_path, raw_lines)
    code_lines = strip_comments_and_strings(raw).split("\n")
    return checker(fixture_path, raw_lines, code_lines)


def self_test():
    fixtures = os.path.join(REPO_ROOT, "tools", "lint_fixtures")
    failures = []
    cases = [(rule, RULES[rule][0]) for rule in sorted(RULES)]
    cases.append(("tsan-supp", None))
    for rule, checker in cases:
        is_supp = rule == "tsan-supp"
        ext = ".supp" if is_supp else ".cc"
        bad = os.path.join(fixtures, rule + "_bad" + ext)
        good = os.path.join(fixtures, rule + "_good" + ext)
        bad_hits = run_fixture(checker, bad, is_supp)
        good_hits = run_fixture(checker, good, is_supp)
        if not any(v.rule == rule for v in bad_hits):
            failures.append("%s: did not fire on %s" % (rule, bad))
        if good_hits:
            failures.append("%s: false positive on %s: %s"
                            % (rule, good, good_hits[0]))
        print("  %-16s bad fixture: %d hit(s); good fixture: clean%s"
              % (rule, len(bad_hits),
                 "" if not good_hits else " FAILED"))
    # --json contract: every violation serializes to the four stable keys
    # CI renders as GitHub annotations, and the result survives a JSON
    # round-trip.
    sample = run_fixture(RULES["raw-sync"][0],
                         os.path.join(fixtures, "raw-sync_bad.cc"))
    encoded = json.loads(json.dumps([v.as_dict() for v in sample]))
    for entry in encoded:
        if sorted(entry) != ["file", "line", "message", "rule"]:
            failures.append("--json: unexpected keys %s" % sorted(entry))
        elif not isinstance(entry["line"], int):
            failures.append("--json: line is not an int: %r"
                            % entry["line"])
    if not encoded:
        failures.append("--json: raw-sync bad fixture produced no "
                        "violations to serialize")
    print("  %-16s %d violation(s) round-trip with stable keys"
          % ("--json", len(encoded)))
    if failures:
        for f in failures:
            print("SELF-TEST FAILURE: " + f, file=sys.stderr)
        return 1
    print("sbx_lint self-test: all %d rules fire on their bad fixture "
          "and stay quiet on the good one" % len(cases))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=REPO_ROOT,
                        help="repository root to lint (default: the "
                             "checkout containing this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the rule fixtures instead of the tree")
    parser.add_argument("--json", action="store_true",
                        help="emit violations as a JSON array on stdout "
                             "(objects with rule, file, line, message)")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    violations = lint_tree(args.root)
    if args.json:
        json.dump([v.as_dict() for v in violations], sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 1 if violations else 0
    for v in violations:
        print(v)
    if violations:
        print("sbx_lint: %d violation(s)" % len(violations),
              file=sys.stderr)
        return 1
    print("sbx_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
