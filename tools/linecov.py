"""List the lines of src/kgmon that the Tier-1 tests never run.

Runs pytest in this interpreter under sys.settrace (and threading.settrace,
for worker threads), then compares the lines that ran with the executable
lines of every src/kgmon/*.py file, as the compiler's line tables give
them. Code that a test runs in a subprocess does not count.

    python tools/linecov.py [PYTEST_ARGS...]

pytest runs in the repository root, so its arguments are relative to it.

Each line that never ran is printed as `path:line: source`, with the
reason when ALLOWED names it. The exit status is pytest's when a test
fails, else 1 when a line outside ALLOWED never ran, else 0. A run takes
about twice as long as plain Tier-1, which is why this is a script and
not a test.
"""

import os
import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kgmon"

# (file name, stripped source line) -> why no Tier-1 test runs that line.
ALLOWED = {
    ("cli.py", "sys.exit(main())"): "runs only as `python -m kgmon.cli`; tests call main()",
}


def executable_lines(path: Path) -> set[int]:
    """Every line that some instruction of the module's code is on."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines: set[int] = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status and, per src/kgmon file, the lines that ran."""
    hits = {str(path): set() for path in PACKAGE.glob("*.py")}

    def trace(frame, event, arg):
        lines = hits.get(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def trace_lines(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    if any(name == "kgmon" or name.startswith("kgmon.") for name in sys.modules):
        raise SystemExit("kgmon is imported already; its module code would not count")
    sys.path.insert(0, str(PACKAGE.parent))
    os.chdir(ROOT)
    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main(argv: list[str]) -> int:
    status, hits = run_traced(["-q", "-p", "no:cacheprovider", *argv])
    total = missed = not_allowed = 0
    used = set()
    for filename in sorted(hits):
        path = Path(filename)
        source = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines - hits[filename]):
            text = source[line - 1].strip()
            reason = ALLOWED.get((path.name, text))
            missed += 1
            if reason is None:
                not_allowed += 1
                print(f"{path.relative_to(ROOT)}:{line}: {text}")
            else:
                used.add((path.name, text))
                print(f"{path.relative_to(ROOT)}:{line}: {text}  [allowed: {reason}]")
    for name, text in sorted(set(ALLOWED) - used):
        print(f"unused allowlist entry: {name}: {text}")
    print(
        f"{missed} of {total} executable lines never ran, "
        f"{not_allowed} of them not allowed"
    )
    if status:
        return status
    return 1 if not_allowed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
