"""Print the public momentlab functions and methods that nothing reaches when
the five scenarios and the golden scenarios (tests/golden/*.json) run
through `cli.main` (validate, then run) and the first period of the
benchmark's polytopes and pointwise inputs at seed 1 (read from
bench/workloads.py) run under a profile hook.  Stdlib only; gates nothing:
`python3 tools/unreached.py`."""

import contextlib
import importlib
import inspect
import io
import pkgutil
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
sys.dont_write_bytecode = True  # leave no cache files in bench/

import momentlab  # noqa: E402
import workloads as w  # noqa: E402
from momentlab import cli  # noqa: E402


def public_code():
    """(name, code object) for each public function and method."""
    for info in pkgutil.iter_modules(momentlab.__path__):
        mod = importlib.import_module(f"momentlab.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj.__code__
            for attr, member in vars(obj).items() if inspect.isclass(obj) else ():
                fn = getattr(member, "__func__", member)  # a staticmethod's function
                if not attr.startswith("_") and inspect.isfunction(fn):
                    yield f"{info.name}.{name}.{attr}", fn.__code__


def run_everything() -> None:
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        for path in [*sorted((ROOT / "scenarios").glob("*.json")),
                     *sorted((ROOT / "tests" / "golden").glob("*.json"))]:
            cli.main(["validate", str(path)])
            cli.main(["run", str(path), "--out", f"{out}/{path.parent.name}-{path.stem}"])
    for name, stream, item, pattern in (
            ("polytopes", w.polytope_stream, w.polytope_item, w.POLYTOPE_PATTERN),
            ("pointwise", w.pointwise_stream, w.pointwise_item, w.POINTWISE_PATTERN)):
        inputs = stream(random.Random(f"{name}:1"))
        for _ in pattern:
            item(next(inputs))


if __name__ == "__main__":
    reached = set()
    sys.setprofile(lambda frame, event, arg: event == "call" and reached.add(frame.f_code))
    run_everything()
    sys.setprofile(None)
    print("\n".join(name for name, code in sorted(public_code()) if code not in reached))
