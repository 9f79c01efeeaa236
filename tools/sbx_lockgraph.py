#!/usr/bin/env python3
"""sbx_lockgraph: static cross-TU lock-order extractor.

Builds the mutex acquisition graph of src/ and checks it against the
declared hierarchy (src/util/lock_rank.h). Clang TSA (PR 8) proves who
guards what but is ordering-blind; the SBX_LOCK_RANK tracker catches
inversions at runtime but only on paths a test actually executes. This
tool closes the remaining gap: it sees every acquisition site in the
tree at once, including pairs no test interleaves.

What it parses (no compiler needed — the conventions sbx_lint enforces
make the tree regular enough for this):

  * the LockRank enum in src/util/lock_rank.h (`kName = value,`);
  * ranked mutex members: `Mutex name{LockRank::kX, "Class::name"}`,
    attributed to their enclosing class;
  * SBX_EXCLUDES(m) on a method declaration — calling the method
    acquires `m` internally (that is what the annotation promises);
  * SBX_REQUIRES(m) on a method — its body runs with `m` already held;
  * `MutexLock lock(expr)` scopes and annotated-method calls inside
    method bodies, tracked against brace depth.

An edge A -> B means "some thread acquires B while holding A". Checks:

  * every edge must ASCEND the declared ranks strictly (equal rank is an
    undeclared ordering, same as the runtime tracker);
  * a self-edge is a re-entrant acquisition (UB on std::mutex);
  * the graph must be acyclic — this also covers mutexes whose rank the
    extractor cannot resolve, which skip the rank check but still
    participate in cycle detection.

Exit 1 on any violation. `--dot FILE` writes the graph for the CI
artifact (render with `dot -Tsvg`).

Usage:
  tools/sbx_lockgraph.py [--root DIR] [--dot FILE]   check the tree
  tools/sbx_lockgraph.py --self-test                 run the fixtures
"""

import argparse
import os
import re
import sys

# One C++ comment/literal stripper for both tools (this script's directory
# is on sys.path when it runs as tools/sbx_lockgraph.py).
from sbx_lint import strip_comments_and_strings

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SOURCE_EXTENSIONS = (".h", ".cpp", ".cc", ".hpp")

# The wrapper and the tracker implement the primitives — their internals
# are not acquisition sites in the graph's sense.
SKIP_FILES = (
    "src/util/thread_annotations.h",
    "src/util/lock_rank.h",
    "src/util/lock_rank.cpp",
)

RANK_ENUM_RE = re.compile(r"\bk(\w+)\s*=\s*(\d+)\s*,")
CLASS_RE = re.compile(
    r"\b(?:class|struct)\s+(?:SBX_\w+\(.*?\)\s+)?(\w+)[^;{()]*\{")
MUTEX_DECL_RE = re.compile(
    r"\bMutex\s+(\w+)\s*\{\s*(?:sbx::)?(?:util::)?LockRank::(k\w+)",
    re.DOTALL)
CONDVAR_DECL_RE = re.compile(r"\bCondVar\s+(\w+)\s*;")
ANNOTATION_RE = re.compile(r"\bSBX_(EXCLUDES|REQUIRES)\s*\(([^)]*)\)")
METHOD_DEF_RE = re.compile(r"\b(\w+)::(~?\w+)\s*\(")
MUTEX_LOCK_RE = re.compile(
    r"\bMutexLock\s+\w+\s*\(\s*((?:\w+\s*(?:\.|->)\s*)?\w+)\s*\)")
CALL_NAME_RE = re.compile(r"(\w+)\s*\(")
MEMBER_TYPE_RE_TEMPLATE = r"([\w:]+(?:<[^;{{}}]*>)?)\s*[*&]?\s+%s\s*[;{{=]"

CPP_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "new",
    "delete", "throw", "static_cast", "reinterpret_cast", "const_cast",
    "dynamic_cast", "assert", "defined",
}


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def matching_brace(text, open_idx):
    """Index just past the brace matching text[open_idx] == '{', or
    len(text) when unbalanced (truncated/macro-heavy code degrades to
    'rest of file', which only widens a class extent)."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def class_extents(text):
    """[(start, end, name)] for every class/struct body, innermost last
    when sorted by start."""
    out = []
    for m in CLASS_RE.finditer(text):
        open_idx = text.index("{", m.end() - 1)
        out.append((open_idx, matching_brace(text, open_idx), m.group(1)))
    return out


def enclosing_class(extents, offset):
    """Innermost class/struct containing `offset` (latest start wins)."""
    best = None
    for start, end, name in extents:
        if start <= offset < end and (best is None or start > best[0]):
            best = (start, end, name)
    return best[2] if best else None


class MutexInfo:
    def __init__(self, cls, member, rank_name, rank_value, where):
        self.cls = cls
        self.member = member
        self.rank_name = rank_name
        self.rank_value = rank_value  # None when the enumerator is unknown
        self.where = where

    @property
    def qualified(self):
        return "%s::%s" % (self.cls, self.member)


class Tree:
    """Everything extracted from one source tree."""

    def __init__(self):
        self.ranks = {}            # "kShard" -> 30
        self.mutexes = {}          # (cls, member) -> MutexInfo
        self.condvar_members = set()
        self.acquires = {}         # method -> (cls, {member, ...})
        self.requires = {}         # (cls, method) -> {member, ...}
        self.ambiguous_methods = set()
        self.edges = {}            # (src MutexInfo, dst MutexInfo) -> [site]
        self.warnings = []

    def mutex_in(self, cls, member):
        return self.mutexes.get((cls, member))

    def add_edge(self, src, dst, site):
        self.edges.setdefault((src, dst), []).append(site)


def parse_ranks(root, tree):
    path = os.path.join(root, "src", "util", "lock_rank.h")
    if not os.path.exists(path):
        tree.warnings.append("no src/util/lock_rank.h under %s — every "
                             "mutex will be unranked" % root)
        return
    with open(path, encoding="utf-8") as f:
        text = strip_comments_and_strings(f.read())
    enum = re.search(r"enum\s+class\s+LockRank[^{]*\{", text)
    if enum is None:
        tree.warnings.append("%s: no `enum class LockRank` found" % path)
        return
    body = text[enum.end():matching_brace(text, enum.end() - 1)]
    for m in RANK_ENUM_RE.finditer(body):
        tree.ranks["k" + m.group(1)] = int(m.group(2))


def source_files(root):
    base = os.path.join(root, "src")
    for dirpath, _, filenames in os.walk(base):
        for name in sorted(filenames):
            if not name.endswith(SOURCE_EXTENSIONS):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            if rel in SKIP_FILES:
                continue
            yield path


def collect_declarations(path, text, tree):
    extents = class_extents(text)
    rel = path
    for m in MUTEX_DECL_RE.finditer(text):
        cls = enclosing_class(extents, m.start())
        if cls is None:
            tree.warnings.append("%s:%d: Mutex %s outside any class; "
                                 "skipped" % (rel, line_of(text, m.start()),
                                              m.group(1)))
            continue
        rank_name = m.group(2)
        rank_value = tree.ranks.get(rank_name)
        if rank_value is None:
            tree.warnings.append(
                "%s:%d: %s::%s uses %s, which is not in lock_rank.h — "
                "rank checks skipped for it (cycle detection still "
                "applies)" % (rel, line_of(text, m.start()), cls,
                              m.group(1), rank_name))
        tree.mutexes[(cls, m.group(1))] = MutexInfo(
            cls, m.group(1), rank_name, rank_value,
            "%s:%d" % (rel, line_of(text, m.start())))
    for m in CONDVAR_DECL_RE.finditer(text):
        tree.condvar_members.add(m.group(1))


def method_name_before(text, paren_close):
    """The identifier owning the argument list that CLOSES at
    paren_close (an index of ')'), balancing nested parentheses."""
    depth = 0
    i = paren_close
    while i >= 0:
        if text[i] == ")":
            depth += 1
        elif text[i] == "(":
            depth -= 1
            if depth == 0:
                break
        i -= 1
    if i < 0:
        return None
    m = re.search(r"(\w+)\s*$", text[:i])
    return m.group(1) if m else None


def collect_annotations(path, text, tree):
    """SBX_EXCLUDES/REQUIRES on declarations: EXCLUDES means 'calling me
    acquires these', REQUIRES means 'my body starts with these held'."""
    extents = class_extents(text)
    for m in ANNOTATION_RE.finditer(text):
        cls = enclosing_class(extents, m.start())
        if cls is None:
            # Out-of-class definitions repeat no annotations in this
            # codebase (clang forbids it), so nothing is lost.
            continue
        # The annotation trails the declaration's argument list: walk
        # back over `) const noexcept SBX_...` to the closing paren.
        before = text[:m.start()].rstrip()
        while True:
            stripped = before.rstrip()
            for tok in ("const", "noexcept", "override", "final"):
                if stripped.endswith(tok):
                    stripped = stripped[:-len(tok)].rstrip()
            if stripped == before:
                break
            before = stripped
        # Skip over earlier SBX_ annotations in a chain.
        chain = re.search(r"(SBX_\w+\s*\([^()]*\)\s*)+$", before)
        if chain:
            before = before[:chain.start()].rstrip()
        if not before.endswith(")"):
            continue
        method = method_name_before(before, len(before) - 1)
        if method is None:
            continue
        members = {a.strip() for a in m.group(2).split(",") if a.strip()}
        # Only member mutexes of this class participate; capability
        # PARAMETERS (e.g. `util::Mutex& mu` + SBX_REQUIRES(mu)) are the
        # caller's lock and are seen at the caller's own sites.
        members = {x for x in members if (cls, x) in tree.mutexes}
        if not members:
            continue
        if m.group(1) == "EXCLUDES":
            prev = tree.acquires.get(method)
            if prev is not None and prev[0] != cls:
                tree.ambiguous_methods.add(method)
                tree.warnings.append(
                    "%s:%d: method name '%s' is annotated in both %s and "
                    "%s — call sites with unresolvable receivers are "
                    "skipped for it" % (path, line_of(text, m.start()),
                                        method, prev[0], cls))
            else:
                tree.acquires[method] = (cls, prev[1] | members
                                         if prev else members)
        else:
            key = (cls, method)
            tree.requires[key] = tree.requires.get(key, set()) | members


def member_type(text, extents, cls, member):
    """Declared type of `member` in class `cls`, unwrapped of pointers /
    references / smart pointers; None when not found."""
    for start, end, name in extents:
        if name != cls:
            continue
        body = text[start:end]
        m = re.search(MEMBER_TYPE_RE_TEMPLATE % re.escape(member), body)
        if m is None:
            continue
        t = m.group(1)
        inner = re.search(r"<\s*([\w:]+)\s*>$", t)
        if inner and re.search(r"\b(?:unique_ptr|shared_ptr)$",
                               t[:t.index("<")]):
            t = inner.group(1)
        return t.split("::")[-1]
    return None


def resolve_lock_expr(expr, cls, text, extents, tree):
    """The MutexInfo a `MutexLock lock(expr)` acquires, or None."""
    parts = re.split(r"\s*(?:\.|->)\s*", expr)
    member = parts[-1]
    if len(parts) == 1 or parts[0] == "this":
        info = tree.mutex_in(cls, member) if cls else None
        if info is not None:
            return info
    else:
        recv_type = member_type(text, extents, cls, parts[0]) if cls else None
        if recv_type is not None:
            info = tree.mutex_in(recv_type, member)
            if info is not None:
                return info
    # Fallback: unique member name across all classes.
    hits = [i for (c, mm), i in tree.mutexes.items() if mm == member]
    return hits[0] if len(hits) == 1 else None


def method_bodies(text):
    """Yields (cls, method, body_start, body_end) for out-of-class
    `Ret Class::method(...) ... {` definitions."""
    for m in METHOD_DEF_RE.finditer(text):
        # Balance the parameter list.
        depth = 0
        i = m.end() - 1
        n = len(text)
        while i < n:
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        if i >= n:
            continue
        # Scan to the body's '{' over qualifiers and ctor init lists; a
        # ';' (pure declaration / call statement) disqualifies.
        j = i + 1
        while j < n and text[j] != "{" and text[j] != ";":
            j += 1
        if j >= n or text[j] == ";":
            continue
        between = text[i + 1:j]
        if re.search(r"[^\w\s:&*,()<>\[\]{}.\-+=]", between):
            continue
        yield m.group(1), m.group(2), j, matching_brace(text, j)


def scan_body(path, text, extents, tree, cls, method, start, end):
    """Walks one body, tracking MutexLock scopes + annotated calls, and
    records edges held-lock -> acquired-lock."""
    held = []  # [(depth, MutexInfo, pinned)] — pinned = REQUIRES seed
    for member in tree.requires.get((cls, method), ()):
        info = tree.mutex_in(cls, member)
        if info is not None:
            held.append((0, info, True))
    depth = 0
    i = start
    while i < end:
        c = text[i]
        if c == "{":
            depth += 1
            i += 1
            continue
        if c == "}":
            depth -= 1
            held = [h for h in held if h[2] or h[0] <= depth]
            i += 1
            continue
        if not (c == "M" or c.isalpha() or c == "_"):
            i += 1
            continue
        lock_m = MUTEX_LOCK_RE.match(text, i)
        if lock_m:
            info = resolve_lock_expr(lock_m.group(1), cls, text, extents,
                                     tree)
            site = "%s:%d" % (path, line_of(text, i))
            if info is not None:
                for _, h, _ in held:
                    tree.add_edge(h, info, site)
                held.append((depth, info, False))
            else:
                tree.warnings.append(
                    "%s: MutexLock on unresolved expression '%s'"
                    % (site, lock_m.group(1)))
            i = lock_m.end()
            continue
        call_m = CALL_NAME_RE.match(text, i)
        if call_m:
            name = call_m.group(1)
            entry = tree.acquires.get(name)
            if (entry is not None and name not in CPP_KEYWORDS
                    and name not in tree.ambiguous_methods and held):
                decl_cls, members = entry
                # The receiver sits BEFORE the call name: `recv.name(`,
                # `recv->name(`, or a chained `f(...).name(`.
                back = text[start:i].rstrip()
                recv = None
                chained = False
                qualified_recv = False
                if back.endswith("->") or back.endswith("."):
                    qualified_recv = True
                    back = back[:-2 if back.endswith("->") else -1].rstrip()
                    if back.endswith(")") or back.endswith("]"):
                        chained = True  # type not statically resolvable
                    else:
                        m2 = re.search(r"(\w+)$", back)
                        recv = m2.group(1) if m2 else None
                if recv in tree.condvar_members:
                    ok = False
                elif chained or recv == "this":
                    ok = True
                elif recv is not None:
                    rtype = member_type(text, extents, cls, recv)
                    # A receiver with a known NON-matching type (e.g. an
                    # std::ofstream member that happens to have a
                    # `flush` method) is not this annotated method.
                    ok = rtype is None or rtype == decl_cls
                elif qualified_recv:
                    ok = True  # receiver present but unparseable
                else:
                    # Unqualified call: only plausible on this class.
                    ok = decl_cls == cls
                if ok:
                    site = "%s:%d" % (path, line_of(text, i))
                    for member in members:
                        info = tree.mutex_in(decl_cls, member)
                        if info is None:
                            continue
                        for _, h, _ in held:
                            tree.add_edge(h, info, site)
            i = call_m.end()
            continue
        # Skip the rest of this identifier.
        while i < end and (text[i].isalnum() or text[i] == "_"):
            i += 1
    return


def analyze(root):
    tree = Tree()
    parse_ranks(root, tree)
    stripped = {}
    for path in source_files(root):
        with open(path, encoding="utf-8") as f:
            text = strip_comments_and_strings(f.read())
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        stripped[rel] = text
        collect_declarations(rel, text, tree)
    for rel, text in stripped.items():
        collect_annotations(rel, text, tree)
    for rel, text in stripped.items():
        extents = class_extents(text)
        for cls, method, start, end in method_bodies(text):
            scan_body(rel, text, extents, tree, cls, method, start, end)
        # REQUIRES methods defined inline in class bodies: scan the
        # class extents too, seeding from the extent's class. Out-of-
        # class bodies were already covered above; inline ones only
        # matter when they hold MutexLock scopes, which the codebase's
        # headers do not — this keeps them from silently dropping out
        # if that changes.
    return tree


def check(tree):
    violations = []
    for (src, dst), sites in sorted(
            tree.edges.items(), key=lambda kv: kv[1][0]):
        if src is dst:
            violations.append(
                "%s: re-entrant acquisition of %s (already held on entry)"
                % (sites[0], src.qualified))
            continue
        if src.rank_value is None or dst.rank_value is None:
            continue
        if src.rank_value >= dst.rank_value:
            violations.append(
                "%s: acquiring %s (%s=%d) while holding %s (%s=%d) "
                "contradicts the declared ranks — the hierarchy requires "
                "strictly ascending acquisition"
                % (sites[0], dst.qualified, dst.rank_name, dst.rank_value,
                   src.qualified, src.rank_name, src.rank_value))
    # Cycle detection catches what rank checks cannot see (unranked
    # mutexes) and double-reports genuine inversions as cycles when the
    # reverse edge also exists.
    graph = {}
    for (src, dst), _ in tree.edges.items():
        graph.setdefault(src, set()).add(dst)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {}
    stack_path = []

    def dfs(node):
        color[node] = GRAY
        stack_path.append(node)
        for nxt in sorted(graph.get(node, ()), key=lambda x: x.qualified):
            if color.get(nxt, WHITE) == GRAY:
                cycle = stack_path[stack_path.index(nxt):] + [nxt]
                violations.append(
                    "acquisition cycle: "
                    + " -> ".join(n.qualified for n in cycle))
            elif color.get(nxt, WHITE) == WHITE:
                dfs(nxt)
        stack_path.pop()
        color[node] = BLACK

    for node in sorted(graph, key=lambda x: x.qualified):
        if color.get(node, WHITE) == WHITE:
            dfs(node)
    return violations


def write_dot(tree, out_path):
    lines = ["digraph sbx_locks {", "  rankdir=LR;",
             "  node [shape=box, fontname=\"monospace\"];"]
    nodes = set()
    for (src, dst) in tree.edges:
        nodes.add(src)
        nodes.add(dst)
    for (cls, member), info in sorted(tree.mutexes.items()):
        nodes.add(info)
    for info in sorted(nodes, key=lambda x: (x.rank_value is None,
                                             x.rank_value or 0,
                                             x.qualified)):
        rank = ("%s=%d" % (info.rank_name, info.rank_value)
                if info.rank_value is not None
                else "%s=?" % info.rank_name)
        lines.append("  \"%s\" [label=\"%s\\n%s\"];"
                     % (info.qualified, info.qualified, rank))
    for (src, dst), sites in sorted(tree.edges.items(),
                                    key=lambda kv: kv[1][0]):
        lines.append("  \"%s\" -> \"%s\" [label=\"%s\"];"
                     % (src.qualified, dst.qualified, sites[0]))
    lines.append("}")
    with open(out_path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def run(root, dot_path=None, quiet=False):
    tree = analyze(root)
    violations = check(tree)
    if dot_path:
        write_dot(tree, dot_path)
    if not quiet:
        print("sbx_lockgraph: %d ranked mutex(es), %d acquisition "
              "edge(s)" % (len(tree.mutexes), len(tree.edges)))
        for (src, dst), sites in sorted(tree.edges.items(),
                                        key=lambda kv: kv[1][0]):
            print("  %s -> %s   [%s]" % (src.qualified, dst.qualified,
                                         sites[0]))
        for w in tree.warnings:
            print("warning: " + w, file=sys.stderr)
    for v in violations:
        print("sbx_lockgraph: VIOLATION: " + v, file=sys.stderr)
    if violations:
        return 1, tree, violations
    if not quiet:
        print("sbx_lockgraph: acquisition graph is acyclic and agrees "
              "with the declared ranks")
    return 0, tree, violations


# --- self-test ---------------------------------------------------------------

def self_test():
    fixtures = os.path.join(REPO_ROOT, "tools", "lockgraph_fixtures")
    failures = []

    good_rc, good_tree, _ = run(os.path.join(fixtures, "good"), quiet=True)
    edges = {"%s -> %s" % (s.qualified, d.qualified)
             for s, d in good_tree.edges}
    if good_rc != 0:
        failures.append("good fixture: expected clean, got violations")
    if "Db::mutex_ -> Log::io_mutex_" not in edges:
        failures.append("good fixture: missing the Db -> Log edge "
                        "(extraction broke); saw %s" % sorted(edges))
    print("  good       %d edge(s), clean%s"
          % (len(edges), "" if good_rc == 0 else " FAILED"))

    cyc_rc, _, cyc_viol = run(os.path.join(fixtures, "cyclic"), quiet=True)
    if cyc_rc == 0 or not any("cycle" in v for v in cyc_viol):
        failures.append("cyclic fixture: expected an acquisition-cycle "
                        "violation, got %s" % (cyc_viol or "clean"))
    print("  cyclic     %d violation(s), cycle detected%s"
          % (len(cyc_viol),
             "" if cyc_rc != 0 else " FAILED"))

    inv_rc, _, inv_viol = run(os.path.join(fixtures, "inversion"),
                              quiet=True)
    if inv_rc == 0 or not any("contradicts" in v for v in inv_viol):
        failures.append("inversion fixture: expected a rank contradiction,"
                        " got %s" % (inv_viol or "clean"))
    print("  inversion  %d violation(s), rank contradiction detected%s"
          % (len(inv_viol), "" if inv_rc != 0 else " FAILED"))

    if failures:
        for f in failures:
            print("SELF-TEST FAILURE: " + f, file=sys.stderr)
        return 1
    print("sbx_lockgraph self-test: good fixture extracts and passes; "
          "cyclic and inversion fixtures fail as they must")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=REPO_ROOT,
                        help="source tree to analyze (default: the "
                             "checkout containing this script)")
    parser.add_argument("--dot", metavar="FILE",
                        help="write the acquisition graph as Graphviz DOT")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture trees instead of --root")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    rc, _, _ = run(args.root, dot_path=args.dot)
    return rc


if __name__ == "__main__":
    sys.exit(main())
