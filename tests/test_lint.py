"""Source checks that need only the standard library, and one that walks
the CLI parser."""

import argparse
import ast
import re
import shlex
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "primelab"


def _unused_imports(path):
    """Names bound by the module's top-level imports that it never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_no_unused_imports_in_src():
    # __init__.py imports only to re-export
    unused = {path.name: _unused_imports(path) for path in SRC.glob("*.py")
              if path.name != "__init__.py"}
    assert {name: u for name, u in unused.items() if u} == {}


def _bound_names(tree):
    """Names a module's top level binds (def, class, assignment, import),
    plus "Class.attr" for the names each top-level class body binds."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        if isinstance(node, ast.ClassDef):
            out |= {f"{node.name}.{n}" for n in _bound_names(node)}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            out.update(n.id for t in targets for n in ast.walk(t)
                       if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update((a.asname or a.name).split(".")[0] for a in node.names)
    return out


def _private_definitions(tree):
    """Names with one leading underscore that the module's top level binds."""
    return {n for n in _bound_names(tree)
            if n.startswith("_") and not n.startswith("__") and "." not in n}


def _reads(tree):
    """Names a module reads: loaded names, attributes and imported names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_no_dead_private_names_in_src():
    """A private top-level name no module of src/ reads is a leftover of a
    deleted path."""
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(SRC.glob("*.py"))}
    read = set().union(*map(_reads, trees.values()))
    dead = {name: sorted(_private_definitions(tree) - read)
            for name, tree in trees.items()}
    assert {name: d for name, d in dead.items() if d} == {}



ROOT = SRC.parent.parent


def _optional_parameters(tree):
    """(name, parameter, position, line) of every parameter with a default of
    the functions, methods and dataclasses defined in tree.  The position is
    that of a call's positional argument: none for keyword-only parameters,
    counted after self (or cls) for a method and in field order for a
    dataclass."""
    out = []
    methods = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            methods.update(f for f in node.body
                           if isinstance(f, ast.FunctionDef))
            if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
                out += [(node.name, f.target.id, i, f.lineno)
                        for i, f in enumerate(fields) if _has_default(f)]
        elif isinstance(node, ast.FunctionDef):
            a = node.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            skip = node in methods  # ast.walk reaches a class before its body
            out += [(node.name, p.arg, i - skip, node.lineno)
                    for i, p in enumerate(positional) if i >= first]
            out += [(node.name, p.arg, None, node.lineno)
                    for p, d in zip(a.kwonlyargs, a.kw_defaults)
                    if d is not None]
    return out


def _has_default(field):
    """Whether a dataclass field is an __init__ parameter with a default: a
    value other than a field(...) call without default or default_factory
    or with init=False."""
    value = field.value
    if isinstance(value, ast.Call) and ast.unparse(value.func) == "field":
        kw = {k.arg: ast.unparse(k.value) for k in value.keywords}
        return kw.get("init") != "False" and bool(
            {"default", "default_factory"} & kw.keys())
    return value is not None


def _calls(trees):
    """{callee name: [(positional count, keywords, star)]} over every call
    in trees, the callee named by its last attribute; star is whether the
    call passes *args or **kwargs."""
    out = {}
    for tree in trees:
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "id", getattr(call.func, "attr",
                                                        None))
                star = (any(isinstance(a, ast.Starred) for a in call.args)
                        or any(k.arg is None for k in call.keywords))
                out.setdefault(name, []).append(
                    (len(call.args), {k.arg for k in call.keywords}, star))
    return out


def test_every_optional_parameter_is_set_by_some_call():
    """A default that no call in src/, tests/ or perfbench/ overrides is a
    constant, not an option: a call sets a parameter by keyword, by position
    or through *args or **kwargs."""
    files = [p for d in ("src", "tests", "perfbench")
             for p in sorted((ROOT / d).rglob("*.py"))]
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in files}
    calls = _calls(trees.values())
    unset = [f"{path.name}:{line} {name}({param})"
             for path in sorted(SRC.glob("*.py"))
             for name, param, pos, line in _optional_parameters(trees[path])
             if not any(star or param in keywords
                        or pos is not None and count > pos
                        for count, keywords, star in calls.get(name, []))]
    assert unset == []


def _is_environ(node):
    """os.environ, or environ imported from os."""
    return (isinstance(node, ast.Attribute) and node.attr == "environ"
            and getattr(node.value, "id", None) == "os"
            or isinstance(node, ast.Name) and node.id == "environ")


def _environ_writes(tree):
    """Lines that assign to, delete from, or call a mutating method of
    os.environ, or call os.putenv or os.unsetenv."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and _is_environ(node.value):
            wrote = not isinstance(node.ctx, ast.Load)
        elif isinstance(node, ast.Call) and isinstance(node.func,
                                                       ast.Attribute):
            f = node.func
            wrote = (_is_environ(f.value) and f.attr in (
                "setdefault", "update", "pop", "popitem", "clear")
                or getattr(f.value, "id", None) == "os"
                and f.attr in ("putenv", "unsetenv"))
        else:
            wrote = (isinstance(node, ast.Attribute) and _is_environ(node)
                     and not isinstance(node.ctx, ast.Load))
        if wrote:
            out.append(node.lineno)
    return sorted(out)


def test_only_the_cli_touches_the_process_environment():
    """A library import must leave the environment as it found it; the CLI
    alone sets it (numpy's BLAS threads), before it loads numpy."""
    writes = {p.name: _environ_writes(ast.parse(p.read_text()))
              for p in sorted(SRC.glob("*.py")) if p.name != "cli.py"}
    assert {name: lines for name, lines in writes.items() if lines} == {}
    assert _environ_writes(ast.parse((SRC / "cli.py").read_text()))


# the library: every module but the runner cli.py, which no module imports,
# and the package's lazy re-exports
LIBRARY = {p.stem: ast.parse(p.read_text(), filename=str(p))
           for p in sorted(SRC.glob("*.py"))
           if p.name not in ("cli.py", "__init__.py")}


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _library_imports(tree):
    """(library modules imported, private names of theirs read) of a tree:
    every relative import, function-level ones included, and every
    alias._name read through a module bound by `from . import m as alias`."""
    deps, aliases, private = set(), {}, set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        for a in node.names:
            if node.module is None and a.name in LIBRARY:
                deps.add(a.name)
                aliases[a.asname or a.name] = a.name
            elif node.module in LIBRARY:
                deps.add(node.module)
                if _is_private(a.name):
                    private.add(f"{node.module}.{a.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _is_private(node.attr)
                and getattr(node.value, "id", None) in aliases):
            private.add(f"{aliases[node.value.id]}.{node.attr}")
    return deps, private


def _cycles(graph):
    """The cycles that a depth-first walk of graph closes, as module lists
    that start and end at the same module."""
    out, done = [], set()

    def walk(node, path):
        if node in path:
            out.append(path[path.index(node):] + [node])
        elif node not in done:
            for nxt in sorted(graph[node]):
                walk(nxt, path + [node])
            done.add(node)

    for node in sorted(graph):
        walk(node, [])
    return out


def _import_time_loads(tree, in_functions=False):
    """What a module's import-time statements (all but function bodies, or
    every statement with in_functions) import: each absolute import's
    top-level package, and each library module imported relatively, as
    "primelab.<module>"."""
    out = set()

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not in_functions):
                continue
            if isinstance(child, ast.Import):
                out.update(a.name.split(".")[0] for a in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                out.add(child.module.split(".")[0])
            elif isinstance(child, ast.ImportFrom):  # relative
                names = ([child.module] if child.module
                         else [a.name for a in child.names])
                out.update(f"primelab.{m}" for m in names if m in LIBRARY)
            visit(child)

    visit(tree)
    return out


def test_cli_and_package_load_no_numpy_on_import():
    """A refused `matrix --spectrum` exits before any runner imports its
    library module, so neither the runner nor the package imports numpy,
    scipy, mpmath or a library module (each loads numpy) when it loads."""
    heavy = {"numpy", "scipy", "mpmath"} | {f"primelab.{m}" for m in LIBRARY}
    loads = {}
    for name in ("cli.py", "__init__.py"):
        tree = ast.parse((SRC / name).read_text())
        loads[name] = sorted(_import_time_loads(tree) & heavy)
    assert loads == {"cli.py": [], "__init__.py": []}


def test_cli_imports_no_numerics_anywhere():
    """Each runner reaches numpy, scipy and mpmath only through a library
    module; cli.py imports none of them, not even in a function body."""
    tree = ast.parse((SRC / "cli.py").read_text())
    numerics = {"numpy", "scipy", "mpmath"}
    assert sorted(_import_time_loads(tree, in_functions=True) & numerics) == []


def test_library_imports_form_no_cycle():
    """Library modules import only downward, at call time too."""
    graph = {name: _library_imports(tree)[0] for name, tree in LIBRARY.items()}
    assert _cycles(graph) == []


def test_library_modules_meet_at_public_names():
    """No library module reads another's private names, except the kernel's:
    ratkernel's private helpers are shared by design."""
    reads = {name: sorted(r for r in _library_imports(tree)[1]
                          if not r.startswith("ratkernel."))
             for name, tree in LIBRARY.items()}
    assert {name: r for name, r in reads.items() if r} == {}


def _opens_for_writing(call):
    """Whether a call opens a file for writing: open(file, mode),
    io.open/os.open(file, mode or flags) or path.open(mode) with a mode of
    w, a, x or +, or with a mode or flags that are not a string constant;
    or path.write_text / path.write_bytes."""
    f = call.func
    name = getattr(f, "attr", getattr(f, "id", None))
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    module = getattr(getattr(f, "value", None), "id", None)
    pos = 1 if isinstance(f, ast.Name) or module in ("io", "os") else 0
    modes = call.args[pos:pos + 1] + [k.value for k in call.keywords
                                      if k.arg in ("mode", "flags")]
    return any(not (isinstance(m, ast.Constant) and isinstance(m.value, str))
               or set(m.value) & set("wax+") for m in modes)


def _dumps_json(call, json_names):
    """Whether a call is json.dump or json.dumps, by module or by a name
    imported from json."""
    f = call.func
    return (isinstance(f, ast.Attribute) and f.attr in ("dump", "dumps")
            and getattr(f.value, "id", None) == "json"
            or isinstance(f, ast.Name) and f.id in json_names)


def _file_writers(tree):
    """(enclosing function, line) of every JSON serialization and file
    opened for writing in tree; "" at module level."""
    json_names = {a.asname or a.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module == "json"
                  for a in node.names if a.name in ("dump", "dumps")}
    out = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and (
                    _opens_for_writing(child)
                    or _dumps_json(child, json_names)):
                out.append((where, child.lineno))
            visit(child, where)

    visit(tree, "")
    return out


def test_cli_emit_is_the_one_file_writer():
    """json.dump(s) and every open for writing sit in cli._emit, which
    writes strict JSON (allow_nan=False): a second writer could bypass it."""
    writers = {p.name: _file_writers(ast.parse(p.read_text()))
               for p in sorted(SRC.glob("*.py"))}
    stray = {name: [w for w in found if (name, w[0]) != ("cli.py", "_emit")]
             for name, found in writers.items()}
    assert {name: w for name, w in stray.items() if w} == {}
    assert len(writers["cli.py"]) == 2  # its json.dumps and its open
    emit = next(node for node in ast.walk(ast.parse(
        (SRC / "cli.py").read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "_emit")
    assert "allow_nan=False" in ast.unparse(emit)


# `goldbach.csv` and the like name files, not attributes
_FILE_SUFFIXES = {"csv", "json", "py", "rle", "pbm", "txt", "md", "toml"}


def _readme_names(text):
    """(qualified, called, private) names of README's inline code spans:
    every `module.name` pair, every `name(` and every `_name`, neither of
    the last two after a dot.  Fenced blocks are examples, not names."""
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    spans = re.findall(r"`([^`\n]+)`", text)

    def find(pattern):
        return {m for s in spans for m in re.findall(pattern, s)}

    qualified = {(a, b) for a, b in find(r"(?<![\w.])(\w+)\.(\w+)")
                 if b not in _FILE_SUFFIXES}
    return (qualified, find(r"(?<![\w.])(\w+)\("),
            find(r"(?<![\w.])(_[A-Za-z]\w*)"))


def test_readme_names_resolve_in_src():
    """Every primelab name README writes in backticks is an attribute of the
    module it names, or of some module when it names none: a name the code
    dropped or renamed fails here."""
    names = {p.stem: _bound_names(ast.parse(p.read_text()))
             for p in sorted(SRC.glob("*.py"))}
    names["primelab"] = names.pop("__init__") | set(names)
    anywhere = set().union(*names.values())
    qualified, called, private = _readme_names(
        (ROOT / "README.md").read_text())
    classes = {n.split(".")[0] for n in anywhere if "." in n}
    unknown = sorted(
        [f"{a}.{b}" for a, b in qualified
         if a in names and b not in names[a]
         or a in classes and f"{a}.{b}" not in anywhere]
        + [f"{n}(" for n in called if n not in anywhere]
        + [n for n in private if n not in anywhere])
    assert unknown == []
    assert min(len(qualified), len(called), len(private)) >= 5


def _trace_starts(tree):
    """Lines that call tracemalloc's start() or import names from
    tracemalloc."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "start"
        and getattr(node.func.value, "id", None) == "tracemalloc"
        or isinstance(node, ast.ImportFrom) and node.module == "tracemalloc")


def test_only_the_shared_harness_starts_tracemalloc():
    """Every traced peak of the suite goes through conftest's traced_peak,
    which starts the trace once; no other test file starts its own."""
    starts = {p.name: _trace_starts(ast.parse(p.read_text()))
              for p in sorted((ROOT / "tests").glob("*.py"))}
    assert len(starts.pop("conftest.py")) == 1
    assert {name: lines for name, lines in starts.items() if lines} == {}


def _solver_calls(fn):
    """(line of the first check_solver_cap call or None, [(line, name)] of
    the np.linalg calls other than norm) in function fn."""
    checks, solvers = [], []
    for call in ast.walk(fn):
        if not isinstance(call, ast.Call):
            continue
        f = call.func
        if getattr(f, "id", getattr(f, "attr", None)) == "check_solver_cap":
            checks.append(call.lineno)
        elif (isinstance(f, ast.Attribute) and f.attr != "norm"
              and ast.unparse(f.value) in ("np.linalg", "numpy.linalg")):
            solvers.append((call.lineno, f.attr))
    return min(checks, default=None), solvers


def test_every_float_solver_checks_the_solver_cap_first():
    """A src/ function that calls a np.linalg routine other than norm calls
    check_solver_cap on a line before it, so primelab.SOLVER_CAP bounds
    every float solver."""
    late, seen = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                check, solvers = _solver_calls(fn)
                if solvers:
                    seen.add(fn.name)
                late += [f"{path.name}:{line} {fn.name} np.linalg.{name}"
                         for line, name in solvers
                         if check is None or check >= line]
    assert late == []
    assert {"spectrum", "char_poly", "qr_column_means",
            "_smith_det_and_residual", "almost_period_log_dets"} <= seen


def _command_lines():
    """Every command line that a test, README or the benchmark gives: each
    list literal of tests/ (an element that is no constant, such as
    str(out) or *args, read as None), each `primelab` line of README's sh
    blocks, and each argv of CLI_COMMANDS in perfbench/workloads.py."""
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.List):
                yield [e.value if isinstance(e, ast.Constant) else None
                       for e in node.elts]
    readme = (ROOT / "README.md").read_text()
    for block in re.findall(r"```sh\n(.*?)```", readme, flags=re.S):
        for line in block.splitlines():
            words = shlex.split(line)
            if words[:1] == ["primelab"]:
                yield words[1:]
    workloads = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    commands = next(node.value for node in workloads.body
                    if isinstance(node, ast.Assign)
                    and getattr(node.targets[0], "id", None) == "CLI_COMMANDS")
    for _name, argv in ast.literal_eval(commands):
        yield argv


def test_every_cli_option_is_set_by_some_command_line():
    """An option that no test, README command or benchmark command sets,
    together with its subcommand, is surface nothing exercises: each option
    of the top-level parser ("") and of every subcommand must appear, before
    or after the subcommand's name, in some command line."""
    from primelab import cli
    parser = cli.build_parser()
    [subs] = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    parsers = {"": parser, **subs.choices}
    options = {name: {s: a for a in p._actions for s in a.option_strings
                      if not isinstance(a, argparse._HelpAction)}
               for name, p in parsers.items()}
    seen = set()
    for argv in _command_lines():
        i = next((i for i, w in enumerate(argv) if w in subs.choices), None)
        if i is not None:
            for name, words in (("", argv[:i]), (argv[i], argv[i + 1:])):
                seen.update(options[name].get(w) for w in words)
    unset = sorted({f"{name} {'/'.join(a.option_strings)}".strip()
                    for name, opts in options.items()
                    for a in opts.values() if a not in seen})
    assert unset == []
