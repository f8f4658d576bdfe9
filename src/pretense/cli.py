"""Command-line front end.

Exit codes: 0 on success, 1 on a computation error (bad spec, out-of-range
argument, a verify bundle with failing rows), 2 on a usage error.

Spec arguments (--spec, --spec2, each item of --constituents) are read as a
descriptor for constructions.spec_from_descriptor: inline JSON (starts with
"{"), @FILE or a path to a .json file as `construct` emits it, a builtin name
(one, delta, moebius, liouville), or the shorthand char:Q:INDEX, kron:D,
twist:T, random:SEED[:LIMIT[:KIND]] (KIND cm or gm).

`construct NAME` builds {"construction": NAME, ...} from every flag given:
--spec -> base, --intervals -> exponents, --N -> limit (default 1e4),
--cutoff -> diagnostics_cutoff, --constituents -> constituents, and --q,
--index, --D, --t, --beta, --seed under their own names; random also gets
kind completely-multiplicative.  A field that NAME needs and no flag gives
fails as in a descriptor file: "'character' descriptor needs field 'q'".

Checkpoint grids (--checkpoints) accept a comma list ("10,100,1000") or a
geometric range "LO:HI" on the default ratio.

A plain-text config file (--config, key=value under [args] plus optional
[spec]/[spec2] descriptor sections) supplies defaults; explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from configparser import RawConfigParser
from contextlib import contextmanager
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import core
from .asymptotics import (
    growth_fit,
    l_truncation,
    quotient_identity_check,
    xi_from_sums,
    xi_lookup,
    xi_tilde,
    EXACT,
    NEAREST,
)
from .constructions import STANDARD_NAMES, spec_descriptor, spec_from_descriptor
from .core import (
    COMPLETELY_MULTIPLICATIVE,
    GENERAL_MULTIPLICATIVE,
    build_sieve,
    csv_chunks,
    evaluate,
    geometric_checkpoints,
    json_text,
    partial_sums,
    read_series_csv,
)
from .degree import alpha_coeffs, recursion_residual
from .dirichlet import capped_exponent, dirichlet_inverse, is_prime, solve_quotient
from .errors import InvalidArgumentError, PretenseError
from .metrics import (
    distance_beta,
    distance_classic,
    distance_strong,
    h_majorant_series,
    quotient_abs_series,
    quotient_square_series,
)
from .verify import BUNDLES, DEFAULT_SEED, bundle_json, run_bundle


# ---------------------------------------------------------------------------
# argument parsing helpers

@contextmanager
def _nesting_guard():
    # json and spec_from_descriptor recurse once per level of nesting
    try:
        yield
    except RecursionError:
        raise InvalidArgumentError("descriptor nested too deeply") from None


def parse_spec_arg(text: str):
    with _nesting_guard():
        return spec_from_descriptor(_spec_arg_descriptor(text))


def _spec_arg_descriptor(text: str) -> dict:
    """The descriptor a spec argument names (see the module docstring)."""
    s = text.strip()
    if s.startswith("@") or (s.endswith(".json") and os.path.exists(s)):
        return json.loads(Path(s.removeprefix("@")).read_text())
    if s.startswith("{"):
        return json.loads(s)
    if s in STANDARD_NAMES:
        return {"construction": s}
    head, _, rest = s.partition(":")
    try:
        if head == "char":
            q, ix = rest.split(":")
            return {"construction": "character", "q": int(q), "index": int(ix)}
        if head == "kron":
            return {"construction": "kronecker", "D": int(rest)}
        if head == "twist":
            return {"construction": "archimedean-twist", "t": float(rest)}
        if head == "random":
            parts = rest.split(":")
            seed, limit, kind = parts + ["1e4", "cm"][len(parts) - 1:]
            kind = {"cm": COMPLETELY_MULTIPLICATIVE, "gm": GENERAL_MULTIPLICATIVE}[kind]
            return {"construction": "random", "seed": int(seed),
                    "limit": int(float(limit)), "kind": kind}
    except (ValueError, KeyError) as exc:
        raise InvalidArgumentError(f"cannot parse spec shorthand {s!r}: {exc}")
    raise InvalidArgumentError(
        f"cannot parse spec {s!r}; expected a builtin name {STANDARD_NAMES}, "
        "char:Q:INDEX, kron:D, twist:T, random:SEED, descriptor JSON, or a "
        "descriptor file path"
    )


def _constituent_descriptors(text: str) -> list:
    """The descriptors of a comma list of spec arguments; a comma inside
    inline JSON braces or brackets does not split (a brace or bracket inside
    a JSON string still counts)."""
    items, depth = [""], 0
    for ch in text:
        depth += (ch in "{[") - (ch in "}]")
        if ch == "," and depth == 0:
            items.append("")
        else:
            items[-1] += ch
    return [_spec_arg_descriptor(s) for s in items if s]


def parse_checkpoints(text: Optional[str], n: int):
    if text is None:
        return geometric_checkpoints(min(10, n), n)
    s = text.strip()
    try:
        if ":" in s:
            lo, hi = s.split(":")
            return geometric_checkpoints(float(lo), float(hi))
        return np.array([float(v) for v in s.split(",")])
    except ValueError:
        raise InvalidArgumentError(
            f'cannot parse checkpoints {text!r}; expected "10,100" or "1e3:1e6"'
        ) from None


def _parse_ints(text: str, flag: str) -> list:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise InvalidArgumentError(
            f'cannot parse {flag} {text!r}; expected integers like "3,4"'
        ) from None


def _whole_number(text: str) -> int:
    """A whole-number flag value, written like 100 or 1e6; nan, inf and
    fractions are usage errors."""
    try:
        v = float(text)
        if math.isfinite(v) and v == int(v):
            return int(v)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not a whole number: {text!r}")


def _parse_complex(text: str) -> complex:
    try:
        v = complex(text.replace(" ", ""))
    except ValueError:
        raise InvalidArgumentError(f"cannot parse {text!r} as a complex number")
    if not (math.isfinite(v.real) and math.isfinite(v.imag)):
        raise InvalidArgumentError(f"--s must be finite, got {text!r}")
    return v


def _check_threads(threads: Optional[int]) -> None:
    """Reject a --threads, or else a PRETENSE_THREADS, below 1 or not an
    integer.  Every summation runs one path, so the count selects nothing."""
    source = "thread count"
    if threads is None:
        env = os.environ.get("PRETENSE_THREADS", "").strip()
        if not env:
            return
        source = "PRETENSE_THREADS"
        try:
            threads = int(env)
        except ValueError:
            raise InvalidArgumentError(
                f"PRETENSE_THREADS must be an integer >= 1, got {env!r}"
            ) from None
    if threads < 1:
        raise InvalidArgumentError(f"{source} must be >= 1, got {threads}")


def _emit(chunks, out: Optional[str]) -> None:
    """Write text chunks to the file `out`, else to stdout, each as it is
    produced, so a large CSV is never joined in memory.  A file whose
    chunks fail midway is removed rather than left truncated."""
    if not out:
        sys.stdout.writelines(chunks)
        return
    with open(out, "w") as fh:
        try:
            fh.writelines(chunks)
        except BaseException:
            fh.close()
            Path(out).unlink()
            raise


def _table_chunks(table):
    return csv_chunks(None, core.value_chunks(table, table.limit))


def _dump_json(obj, out: Optional[str]) -> None:
    _emit([json_text(obj) + "\n"], out)


def _local_json(p: int, coeffs) -> dict:
    # one prime's local series h(p^0), h(p^1), ... as quotient and inverse print it
    return {"prime": int(p), "coeffs": np.asarray(coeffs, dtype=np.complex128)}


# ---------------------------------------------------------------------------
# experiment config files

@dataclass
class ExperimentConfig:
    """Plain-text run description: key=value pairs under section headers.

    [args] holds flag values by flag name (no dashes); [spec] and [spec2]
    hold descriptor fields, dotted keys for nesting, values JSON-encoded
    when not plain strings.  Round-trips losslessly through dumps/loads.
    """

    sections: Dict[str, Dict[str, str]] = field(default_factory=dict)

    @classmethod
    def loads(cls, text: str) -> "ExperimentConfig":
        cp = RawConfigParser(delimiters=("=",), comment_prefixes=("#",))
        cp.optionxform = str
        cp.read_string(text)
        return cls({name: dict(cp.items(name)) for name in cp.sections()})

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        return cls.loads(Path(path).read_text())

    def dumps(self) -> str:
        cp = RawConfigParser(delimiters=("=",))
        cp.optionxform = str
        for name in self.sections:
            cp.add_section(name)
            for k, v in self.sections[name].items():
                cp.set(name, k, v)
        buf = StringIO()
        cp.write(buf)
        return buf.getvalue()

    def dump(self, path) -> None:
        Path(path).write_text(self.dumps())

    def _section_descriptor(self, name: str) -> Optional[dict]:
        flat = self.sections.get(name)
        if not flat:
            return None
        root: dict = {}
        for dotted, raw in flat.items():
            try:
                value = json.loads(raw)
            except json.JSONDecodeError:
                value = raw
            node = root
            *heads, leaf = dotted.split(".")
            for h in heads:
                node = node.setdefault(h, {})
            node[leaf] = value
        return root

    def argv_prefix(self) -> List[str]:
        """Flags implied by the config, to go before explicit ones."""
        out: List[str] = []
        for key, value in self.sections.get("args", {}).items():
            out.extend([f"--{key}", value])
        for section, flag in (("spec", "--spec"), ("spec2", "--spec2")):
            with _nesting_guard():  # a value or a dotted key may nest deeply
                desc = self._section_descriptor(section)
                if desc is not None:
                    out.extend([flag, json.dumps(desc, sort_keys=True)])
        return out


def _apply_config(argv: List[str]) -> List[str]:
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise InvalidArgumentError("--config needs a file path")
    cfg = ExperimentConfig.load(argv[i + 1])
    rest = argv[:i] + argv[i + 2:]
    if not rest:
        raise InvalidArgumentError("--config cannot supply the subcommand itself")
    # insert after the subcommand so explicit flags parsed later win
    return [rest[0]] + cfg.argv_prefix() + rest[1:]


# ---------------------------------------------------------------------------
# subcommand bodies

def _prime_lines(primes):
    # the header, then one chunk of text per BLOCK primes
    yield "p\n"
    for i in range(0, primes.size, core.BLOCK):
        yield "\n".join(map(str, primes[i : i + core.BLOCK].tolist())) + "\n"


def _cmd_sieve(a) -> int:
    sv = build_sieve(a.N)
    if a.out:
        _emit(_prime_lines(sv.primes), a.out)
    print(json.dumps(
        {
            "limit": int(a.N),
            "count": int(len(sv.primes)),
            "largest": int(sv.primes[-1]) if len(sv.primes) else None,
        },
        sort_keys=True,
    ))
    return 0


def _cmd_eval(a) -> int:
    spec = parse_spec_arg(a.spec)
    table = evaluate(spec, build_sieve(a.N))
    _emit(_table_chunks(table), a.out)
    return 0


def _cmd_sums(a) -> int:
    spec = parse_spec_arg(a.spec)
    table = evaluate(spec, build_sieve(a.N))
    grid = parse_checkpoints(a.checkpoints, a.N)
    series = partial_sums(table, grid)
    _emit(csv_chunks(series.checkpoints, series.sums), a.out)
    return 0


def _cmd_convolve(a) -> int:
    sv = build_sieve(a.N)
    ft = evaluate(parse_spec_arg(a.spec), sv)
    ht = evaluate(parse_spec_arg(a.spec2), sv)
    from .dirichlet import convolve_table

    _emit(_table_chunks(convolve_table(ft, ht)), a.out)
    return 0


def _parse_primes(text: Optional[str], default_limit: int = 50):
    if text is None:
        return tuple(int(p) for p in build_sieve(default_limit).primes)
    primes = tuple(_parse_ints(text, "--primes"))
    for p in primes:
        if not is_prime(p):
            raise InvalidArgumentError(f"{p} is not prime")
    return primes


def _cmd_quotient(a) -> int:
    f = parse_spec_arg(a.spec)
    g = parse_spec_arg(a.spec2)
    q = solve_quotient(f, g, primes=_parse_primes(a.primes), max_exponent=a.k)
    _dump_json([_local_json(ls.p, ls.coeffs) for ls in q.local], a.out)
    return 0


def _cmd_inverse(a) -> int:
    if capped_exponent(a.k) < 0:
        raise InvalidArgumentError(f"--k must be >= 0, got {a.k}")
    inv = dirichlet_inverse(parse_spec_arg(a.spec))
    _dump_json([_local_json(p, inv.local(p, a.k)[: a.k + 1])
                for p in _parse_primes(a.primes)], a.out)
    return 0


def _cmd_distance(a) -> int:
    f = parse_spec_arg(a.spec)
    g = parse_spec_arg(a.spec2)
    grid = parse_checkpoints(a.checkpoints, a.N) if a.checkpoints else None
    if a.kind == "classic":
        rep = distance_classic(f, g, a.N, checkpoints=grid)
    elif a.kind == "beta":
        rep = distance_beta(f, g, a.beta, a.N, checkpoints=grid)
    else:
        rep = distance_strong(f, g, a.beta, a.k, a.N, checkpoints=grid)
    _dump_json(rep, a.out)
    return 0


def _cmd_hseries(a) -> int:
    spec = parse_spec_arg(a.spec)
    if a.spec2 is not None:
        g = parse_spec_arg(a.spec2)
        spec = solve_quotient(spec, g, primes=(2, 3, 5),
                              max_exponent=max(a.k, 2)).spec
    if a.N is not None:
        table = evaluate(spec, build_sieve(a.N))
        rep = h_majorant_series(table, a.sigma, a.N, power=a.power)
    elif a.Y is not None:
        rep = quotient_abs_series(spec, a.sigma, a.Y, truncation=a.k)
    else:
        rep = quotient_square_series(spec, a.sigma, truncation=a.k)
    _dump_json(rep, a.out)
    return 0


# construct flag -> (descriptor field, parser of the flag's text or None)
_CONSTRUCT_FIELDS = {
    "spec": ("base", _spec_arg_descriptor),
    "intervals": ("exponents", lambda v: _parse_ints(v, "--intervals")),
    "N": ("limit", None),
    "cutoff": ("diagnostics_cutoff", None),
    "constituents": ("constituents", _constituent_descriptors),
    **{flag: (flag, None) for flag in ("q", "index", "D", "t", "beta", "seed")},
}


def _constructed(name: str, a):
    """The spec of {"construction": name, ...} with a field per flag in `a`,
    and kind completely-multiplicative, which only random reads."""
    desc = {"construction": name, "kind": COMPLETELY_MULTIPLICATIVE}
    with _nesting_guard():
        for flag, (key, parse) in _CONSTRUCT_FIELDS.items():
            v = getattr(a, flag, None)
            if v is not None:
                desc[key] = parse(v) if parse else v
        return spec_from_descriptor(desc)


def _cmd_construct(a) -> int:
    _dump_json(spec_descriptor(_constructed(a.name, a)), a.out)
    return 0


def _cmd_degree(a) -> int:
    if capped_exponent(a.k) < 0:
        raise InvalidArgumentError(f"--k must be >= 0, got {a.k}")
    spec = _constructed("degree-d", a)
    coeffs = alpha_coeffs(spec, a.p)
    residuals = [recursion_residual(spec, a.p, n) for n in range(0, a.k + 1)]
    _dump_json({"degree": spec.degree, "coeffs": coeffs, "residuals": residuals},
               a.out)
    return 0


def _cmd_growth_fit(a) -> int:
    try:
        text = Path(a.series).read_text()
    except UnicodeDecodeError as exc:
        raise InvalidArgumentError(f"{a.series} is not a text CSV: {exc}") from None
    _dump_json(growth_fit(read_series_csv(text)), a.out)
    return 0


def _cmd_xi(a) -> int:
    f = parse_spec_arg(a.spec)
    sv = build_sieve(a.N)
    table = evaluate(f, sv)
    grid = parse_checkpoints(a.checkpoints, a.N)
    series = partial_sums(table, grid)
    xi = xi_from_sums(series, a.alpha)
    if a.x is not None:
        if a.spec2 is not None:
            g = parse_spec_arg(a.spec2)
            h = solve_quotient(f, g, primes=(2, 3, 5), max_exponent=18).spec
            kind, v = "convolved", xi_tilde(evaluate(h, sv), xi, a.x, mode=a.mode)
        else:
            kind, v = "sample", xi_lookup(xi, a.x, mode=a.mode)
        _dump_json({"x": a.x, "kind": kind, "value": v}, a.out)
        return 0
    _emit(csv_chunks(xi.checkpoints, xi.samples), a.out)
    return 0


def _cmd_lseries(a) -> int:
    s = _parse_complex(a.s)
    sv = build_sieve(a.N)
    f = parse_spec_arg(a.spec)
    ft = evaluate(f, sv)
    if a.spec2 is None:
        _dump_json(l_truncation(ft, s), a.out)
        return 0
    g = parse_spec_arg(a.spec2)
    h = solve_quotient(f, g, primes=(2, 3, 5), max_exponent=18).spec
    check = quotient_identity_check(ft, evaluate(g, sv), evaluate(h, sv), s)
    _dump_json(check, a.out)
    return 0


def _cmd_verify(a) -> int:
    results = run_bundle(a.bundle, seed=a.seed)
    for r in results:
        print(r.row())
    n_pass = sum(r.passed for r in results)
    print(f"{a.bundle}: {n_pass}/{len(results)} checks passed")
    if a.out:
        outdir = Path(a.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / f"{a.bundle}.json").write_text(
            bundle_json(a.bundle, a.seed, results) + "\n"
        )
    return 0 if n_pass == len(results) else 1


# ---------------------------------------------------------------------------
# parser wiring

def _add_common(p, *names, **overrides):
    defs = {
        "--N": dict(type=_whole_number, help="dense table limit"),
        "--spec": dict(type=str, help="function spec (see module docstring)"),
        "--spec2": dict(type=str, help="second function spec"),
        "--beta": dict(type=float, help="distance weight exponent in (0,1]"),
        "--sigma": dict(type=float, help="series evaluation point"),
        "--k": dict(type=int, help="max exponent / truncation depth"),
        "--Y": dict(type=float, help="prime cutoff for the first-power series"),
        "--alpha": dict(type=float, help="normalization exponent"),
        "--checkpoints": dict(type=str, help='comma list "10,100" or range "1e3:1e6"'),
        "--out": dict(type=str, help="write output here instead of stdout"),
        "--seed": dict(type=int, default=DEFAULT_SEED, help="random seed"),
        "--threads": dict(type=int, default=None,
                          help="an integer >= 1, checked and then ignored "
                               "(default PRETENSE_THREADS)"),
        "--mode": dict(type=str, choices=(EXACT, NEAREST), default=EXACT,
                       help="lookup mode for normalized sums"),
        "--primes": dict(type=str, help='comma list of primes, e.g. "2,3,5"'),
    }
    for name in names:
        kw = dict(defs[name])
        kw.update(overrides.get(name.lstrip("-"), {}))
        p.add_argument(name, **kw)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pretense",
        description="multiplicative-function distance and quotient toolkit",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", help="smallest-prime-factor sieve summary")
    _add_common(p, "--N", "--out", N={"required": True})
    p.set_defaults(fn=_cmd_sieve)

    p = sub.add_parser("eval", help="dense value table as CSV")
    _add_common(p, "--spec", "--N", "--out",
                spec={"required": True}, N={"required": True})
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("sums", help="checkpointed partial sums as CSV")
    _add_common(p, "--spec", "--N", "--checkpoints", "--threads", "--out",
                spec={"required": True}, N={"required": True})
    p.set_defaults(fn=_cmd_sums)

    p = sub.add_parser("convolve", help="Dirichlet convolution table as CSV")
    _add_common(p, "--spec", "--spec2", "--N", "--out",
                spec={"required": True}, spec2={"required": True},
                N={"required": True})
    p.set_defaults(fn=_cmd_convolve)

    p = sub.add_parser("quotient", help="solve f*h = g for local series of h")
    _add_common(p, "--spec", "--spec2", "--primes", "--k", "--out",
                spec={"required": True}, spec2={"required": True},
                k={"default": 12})
    p.set_defaults(fn=_cmd_quotient)

    p = sub.add_parser("inverse", help="Dirichlet-inverse local series")
    _add_common(p, "--spec", "--primes", "--k", "--out",
                spec={"required": True}, k={"default": 12})
    p.set_defaults(fn=_cmd_inverse)

    p = sub.add_parser("distance", help="pretentious distance report as JSON")
    p.add_argument("--kind", choices=("classic", "beta", "strong"),
                   default="classic")
    _add_common(p, "--spec", "--spec2", "--beta", "--k", "--N",
                "--checkpoints", "--threads", "--out",
                spec={"required": True}, spec2={"required": True},
                N={"required": True}, beta={"default": 1.0}, k={"default": 1})
    p.set_defaults(fn=_cmd_distance)

    p = sub.add_parser(
        "hseries",
        help="quotient size series: squares at sigma, first powers up to Y, "
             "or a dense majorant up to N",
    )
    p.add_argument("--power", choices=("L2", "L1"), default="L2")
    _add_common(p, "--spec", "--spec2", "--sigma", "--Y", "--N", "--k",
                "--threads", "--out",
                spec={"required": True}, sigma={"required": True},
                k={"default": 40})
    p.set_defaults(fn=_cmd_hseries)

    p = sub.add_parser("degree", help="symmetric coefficients and recursion check")
    p.add_argument("--constituents", required=True,
                   help='comma list of specs, e.g. "one,one"')
    p.add_argument("--p", type=int, default=2, help="prime to localize at")
    _add_common(p, "--k", "--out", k={"default": 8})
    p.set_defaults(fn=_cmd_degree)

    p = sub.add_parser("construct", help="emit a reusable spec descriptor")
    p.add_argument("name", choices=list(STANDARD_NAMES) + [
        "character", "kronecker", "archimedean-twist", "sparse-dyadic",
        "optimality-twist", "squarefree-restrict", "random", "degree-d",
    ])
    p.add_argument("--q", type=int, help="modulus")
    p.add_argument("--index", type=int, default=0, help="character index")
    p.add_argument("--t", type=float, default=0.0, help="twist height")
    p.add_argument("--D", type=int, help="fundamental discriminant")
    p.add_argument("--intervals", type=str, help='interval indices, e.g. "3,4"')
    p.add_argument("--cutoff", type=float, help="diagnostic prime cutoff")
    p.add_argument("--constituents", type=str, help="comma list of specs")
    _add_common(p, "--spec", "--beta", "--seed", "--N", "--out",
                beta={"default": 0.5}, N={"default": 10**4})
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("growth-fit", help="fit |S(x)| ~ C x^alpha from a sums CSV")
    p.add_argument("series", help="path to a CSV written by `sums`")
    _add_common(p, "--out")
    p.set_defaults(fn=_cmd_growth_fit)

    p = sub.add_parser("xi", help="normalized partial-sum profile")
    p.add_argument("--x", type=float, help="evaluate at one point instead")
    _add_common(p, "--spec", "--spec2", "--N", "--alpha", "--checkpoints",
                "--mode", "--threads", "--out",
                spec={"required": True}, N={"required": True},
                alpha={"required": True})
    p.set_defaults(fn=_cmd_xi)

    p = sub.add_parser("lseries", help="truncated Dirichlet series / identity check")
    p.add_argument("--s", type=str, required=True,
                   help='evaluation point, e.g. "2" or "2+1j"; with --spec2, '
                        'Re s >= 2, and a verdict ("ok") needs Re s > c + 1 '
                        'for the growth class c of every table (else null)')
    _add_common(p, "--spec", "--spec2", "--N", "--out",
                spec={"required": True}, N={"default": 10**5})
    p.set_defaults(fn=_cmd_lseries)

    p = sub.add_parser("verify", help="run a named acceptance bundle")
    p.add_argument("bundle", choices=sorted(BUNDLES))
    _add_common(p, "--seed", "--threads", "--out")
    p.set_defaults(fn=_cmd_verify)

    return ap


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config(argv)
        args = build_parser().parse_args(argv)
        for name, v in vars(args).items():
            if isinstance(v, float) and not math.isfinite(v):
                raise InvalidArgumentError(f"--{name} must be finite, got {v}")
        if hasattr(args, "threads"):
            _check_threads(args.threads)
        return args.fn(args)
    except PretenseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, OverflowError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
