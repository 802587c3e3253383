"""Command-line front end.

Every command prints one machine-readable JSON object on stdout and a
short human summary on stderr; rationals travel as "p/q" strings.  The
exit status is 0 exactly when no error occurred, and a fixed seed makes
every command byte-reproducible.
"""

from __future__ import annotations

import json
import random

import click

from . import optcost, rdl, sampling, serialize, transform, wrdl
from .core import ambiguity_probe, classify_automaton, enumerate_runs
from .errors import WatlError
from .monoids import WeightPairWord, check_axioms, monoid_from_id, valuate
from .weights import format_weight, is_finite, parse_weight
from .wta import behavior, run_weight


class _Group(click.Group):
    """Reports a library error of any command as click's ``Error:`` line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except WatlError as exc:
            raise click.ClickException(str(exc))


@click.group(cls=_Group)
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for every randomized step.")
@click.option("--cap-preimages", type=int, default=transform.DEFAULT_PREIMAGE_CAP,
              show_default=True,
              help="Bound on the h-preimage count of a word in nivat-eval where "
                   "the preimages are enumerated: for sentence languages, "
                   "recognizable ones over a non-idempotent monoid, and monoids "
                   "without a step-wise valuation.")
@click.option("--max-word-len", type=click.IntRange(min=1), default=4, show_default=True,
              help="Length bound for generated words.")
@click.pass_context
def main(ctx, seed, cap_preimages, max_word_len):
    """Weighted timed automata, relative distance logic and the
    translations between them."""
    ctx.obj = {"seed": seed, "cap": cap_preimages, "maxlen": max_word_len}


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise click.ClickException(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise click.ClickException(f"{path} is not valid JSON: {exc}")


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise click.ClickException(f"cannot read {path}: {exc}")


def _load_word(path, timestamps):
    try:
        return serialize.word_from_list(_read_json(path), timestamps=timestamps)
    except ValueError as exc:  # decreasing timestamps
        raise click.ClickException(str(exc))


def _load_model(path):
    """A weighted automaton, or a plain one when no weights are present."""
    data = _read_json(path)
    if isinstance(data, dict) and "weights" in data:
        return serialize.wta_from_dict(data)
    return serialize.automaton_from_dict(data)


def _load_wta(path):
    model = _load_model(path)
    if not hasattr(model, "monoid"):
        raise click.ClickException(f"{path} has no weights; a weighted model is needed")
    return model


def _load_assignment(path):
    if path is None:
        return None
    return serialize.assignment_from_dict(_read_json(path))


def _emit(payload, summary):
    click.echo(serialize.dump_json(payload))
    click.echo(summary, err=True)


def _split_alphabet(text):
    letters = tuple(part.strip() for part in text.split(",") if part.strip())
    if not letters:
        raise click.ClickException("empty alphabet")
    if len(set(letters)) != len(letters):
        raise click.ClickException("repeated alphabet letter")
    return letters


_WORD = click.option("--word", "word_path", required=True,
                     type=click.Path(exists=True), help="Timed word JSON file.")
_TIMESTAMPS = click.option("--timestamps", is_flag=True,
                           help="Read the word's second components as absolute timestamps.")
_MODEL = click.option("--model", "model_path", required=True,
                      type=click.Path(exists=True), help="Automaton model file.")
_MONOID = click.option("--monoid", "monoid_id", required=True,
                       help="Monoid id such as sum, avg, disc:1/2, prod, sum0, avg0, disc0:1/2.")
_FORMULA = click.option("--formula", "formula_path", required=True,
                        type=click.Path(exists=True), help="Formula text file.")
_TRIPLE = click.option("--triple", "triple_path", required=True,
                       type=click.Path(exists=True), help="Decomposition triple JSON file.")


@main.command("eval")
@_MONOID
@click.option("--pairs", "pairs_path", required=True, type=click.Path(exists=True),
              help="JSON list of [rate, weight, delay] triples.")
def eval_command(monoid_id, pairs_path):
    """Apply a monoid's global valuation to a weight-pair word."""
    monoid = monoid_from_id(monoid_id)
    data = _read_json(pairs_path)
    if not isinstance(data, list) or not data:
        raise click.ClickException("pairs file must be a non-empty JSON list")
    for item in data:
        if not (isinstance(item, list) and len(item) == 3):
            raise click.ClickException("each entry must be [rate, weight, delay]")
    delays = serialize.parse_delays([item[2] for item in data])
    entries = [((parse_weight(str(m)), parse_weight(str(mp))), t)
               for (m, mp, _), t in zip(data, delays)]
    value = valuate(monoid, WeightPairWord(tuple(entries)))
    _emit({"value": format_weight(value)},
          f"{monoid.id} valuation of {len(entries)} pairs: {format_weight(value)}")


@main.command("behavior")
@_MODEL
@_WORD
@_TIMESTAMPS
def behavior_command(model_path, word_path, timestamps):
    """Evaluate a weighted automaton's behavior on a timed word."""
    wta = _load_wta(model_path)
    word = _load_word(word_path, timestamps)
    value = behavior(wta, word)
    _emit({"value": format_weight(value)},
          f"behavior of {model_path} on {word}: {format_weight(value)}")


@main.command("runs")
@_MODEL
@_WORD
@_TIMESTAMPS
def runs_command(model_path, word_path, timestamps):
    """List the accepting runs of a model on a timed word."""
    model = _load_model(model_path)
    weighted = hasattr(model, "monoid")
    base = model.base if weighted else model
    word = _load_word(word_path, timestamps)
    runs = enumerate_runs(base, word)
    listed = []
    for run in runs:
        entry = {"edges": list(run.edge_ids), "locations": list(run.locations)}
        if weighted:
            entry["value"] = format_weight(run_weight(model, run))
        listed.append(entry)
    _emit({"count": len(runs), "runs": listed},
          f"{len(runs)} run(s) of {model_path} on {word}")


@main.command("classify")
@_MODEL
@click.option("--samples", type=click.IntRange(min=1), default=50, show_default=True,
              help="Number of random words for the ambiguity probe.")
@click.pass_context
def classify_command(ctx, model_path, samples):
    """Report structural run-uniqueness classes plus an ambiguity probe."""
    model = _load_model(model_path)
    base = model.base if hasattr(model, "monoid") else model
    report = classify_automaton(base)
    rng = random.Random(ctx.obj["seed"])
    words = [sampling.random_word(rng, base.alphabet, max_len=ctx.obj["maxlen"])
             for _ in range(samples)]
    probe = ambiguity_probe(base, words)
    payload = {
        "sequential": report["sequential"],
        "deterministic": report["deterministic"],
        "unambiguous_flag": base.unambiguous,
        "probe_max_runs": probe["max_runs"],
        "probe_witness": (serialize.word_to_list(probe["witness"])
                          if probe["witness"] is not None else None),
    }
    _emit(payload, f"classes of {model_path}: {payload}")


@main.command("relabel")
@_MODEL
@click.option("--map", "map_path", required=True, type=click.Path(exists=True),
              help="JSON object mapping each letter to its image.")
@click.option("--alphabet", "alphabet_text", default=None,
              help="Comma-separated target alphabet (defaults to the image).")
def relabel_command(model_path, map_path, alphabet_text):
    """Rename edge labels through a letter map, keeping weights."""
    wta = _load_wta(model_path)
    raw = serialize.require_shape(_read_json(map_path), dict, "letter map")
    mapping = {str(k): str(v) for k, v in raw.items()}
    alphabet = _split_alphabet(alphabet_text) if alphabet_text else None
    result = transform.relabel(wta, mapping, alphabet)
    _emit(serialize.wta_to_dict(result),
          f"relabeled {model_path} through {map_path}")


@main.command("comp")
@click.option("--alphabet", "alphabet_text", required=True,
              help="Comma-separated alphabet.")
@click.option("--g", "g_path", required=True, type=click.Path(exists=True),
              help="JSON object letter -> [rate, weight].")
@_MONOID
def comp_command(alphabet_text, g_path, monoid_id):
    """Build the one-run-per-word automaton valuing each word by g."""
    monoid = monoid_from_id(monoid_id)
    alphabet = _split_alphabet(alphabet_text)
    g = serialize.letter_weights_from_dict(_read_json(g_path), "letter weights")
    result = transform.comp_automaton(alphabet, g, monoid)
    _emit(serialize.wta_to_dict(result),
          f"valuation automaton over {{{alphabet_text}}} under {monoid.id}")


@main.command("product")
@_MODEL
@click.option("--language", "language_path", required=True,
              type=click.Path(exists=True), help="Plain acceptor model file.")
def product_command(model_path, language_path):
    """Intersect a weighted automaton with a language acceptor."""
    wta = _load_wta(model_path)
    language = serialize.automaton_from_dict(_read_json(language_path))
    result = transform.product_intersect(wta, language)
    _emit(serialize.wta_to_dict(result),
          f"product of {model_path} with {language_path}")


@main.command("decompose")
@_MODEL
def decompose_command(model_path):
    """Present a weighted automaton as (gamma, h, g, language)."""
    wta = _load_wta(model_path)
    triple = transform.nivat_decompose(wta)
    _emit(serialize.triple_to_dict(triple),
          f"decomposed {model_path}: {len(triple.gamma)} auxiliary letters")


@main.command("compose")
@_TRIPLE
@_MONOID
@click.option("--alphabet", default=None,
              help="Comma-separated target alphabet (default: image of h).")
def compose_command(triple_path, monoid_id, alphabet):
    """Fold a triple with an automaton language into one weighted automaton."""
    monoid = monoid_from_id(monoid_id)
    triple = serialize.triple_from_dict(_read_json(triple_path))
    target = _split_alphabet(alphabet) if alphabet else None
    result = transform.nivat_compose(triple, monoid, target)
    _emit(serialize.wta_to_dict(result), f"composed {triple_path} under {monoid.id}")


@main.command("nivat-eval")
@_TRIPLE
@_WORD
@_MONOID
@_TIMESTAMPS
@click.pass_context
def nivat_eval_command(ctx, triple_path, word_path, monoid_id, timestamps):
    """Evaluate a triple on a word.

    Automaton languages are folded over configurations in one pass when
    the monoid is idempotent or the class allows one run per word; other
    triples enumerate the h-preimages, after checking their count against
    --cap-preimages.
    """
    monoid = monoid_from_id(monoid_id)
    triple = serialize.triple_from_dict(_read_json(triple_path))
    word = _load_word(word_path, timestamps)
    value = transform.nivat_eval(triple, word, monoid, cap=ctx.obj["cap"])
    _emit({"value": format_weight(value)},
          f"{triple_path} on {word} under {monoid.id}: {format_weight(value)}")


@main.command("rdl-check")
@_FORMULA
@_WORD
@_TIMESTAMPS
@click.option("--assign", "assign_path", default=None, type=click.Path(exists=True),
              help="JSON assignment {'fo': {...}, 'so': {...}} for free variables.")
def rdl_check_command(formula_path, word_path, timestamps, assign_path):
    """Model check an unweighted formula on a timed word."""
    formula = rdl.parse_rdl(_read_text(formula_path))
    word = _load_word(word_path, timestamps)
    sigma = _load_assignment(assign_path)
    holds = rdl.model_check(formula, word, sigma)
    _emit({"holds": holds}, f"{formula_path} on {word}: {holds}")


@main.command("wrdl-eval")
@_FORMULA
@_WORD
@_MONOID
@_TIMESTAMPS
@click.option("--assign", "assign_path", default=None, type=click.Path(exists=True),
              help="JSON assignment for free variables.")
def wrdl_eval_command(formula_path, word_path, monoid_id, timestamps, assign_path):
    """Evaluate a weighted formula on a timed word."""
    monoid = monoid_from_id(monoid_id)
    formula = wrdl.parse_wrdl(_read_text(formula_path), monoid)
    word = _load_word(word_path, timestamps)
    sigma = _load_assignment(assign_path)
    value = wrdl.wrdl_eval(formula, word, monoid, sigma)
    _emit({"value": format_weight(value)},
          f"{formula_path} on {word} under {monoid.id}: {format_weight(value)}")


@main.command("wrdl-classify")
@_FORMULA
def wrdl_classify_command(formula_path):
    """Report the fragment memberships of a weighted formula."""
    formula = wrdl.parse_wrdl(_read_text(formula_path))
    decision = wrdl.wrdl_classify(formula)
    payload = {
        "sentence": decision.is_sentence,
        "almost_boolean": decision.almost_boolean,
        "syntactically_restricted": decision.syntactically_restricted,
    }
    _emit(payload, f"classes of {formula_path}: {payload}")


@main.command("canonicalize")
@_FORMULA
@_MONOID
def canonicalize_command(formula_path, monoid_id):
    """Normalize a restricted sentence to prefix + one guard family."""
    monoid = monoid_from_id(monoid_id)
    formula = wrdl.parse_wrdl(_read_text(formula_path), monoid)
    canonical = wrdl.canonicalize(formula, monoid)
    payload = {
        "so_vars": list(canonical.so_vars),
        "var": canonical.var,
        "guards": [rdl.to_text(g) for g in canonical.guards],
        "left": [format_weight(v) for v in canonical.left],
        "right": [format_weight(v) for v in canonical.right],
        "formula": wrdl.to_text(canonical.to_formula()),
    }
    _emit(payload,
          f"canonicalized {formula_path}: {len(canonical.guards)} branch(es)")


@main.command("to-nivat")
@_FORMULA
@_MONOID
@click.option("--alphabet", "alphabet_text", required=True,
              help="Comma-separated alphabet of the words.")
def to_nivat_command(formula_path, monoid_id, alphabet_text):
    """Translate a restricted sentence into a decomposition triple."""
    monoid = monoid_from_id(monoid_id)
    formula = wrdl.parse_wrdl(_read_text(formula_path), monoid)
    canonical = wrdl.canonicalize(formula, monoid)
    triple = wrdl.sentence_to_nivat(canonical, _split_alphabet(alphabet_text), monoid)
    _emit(serialize.triple_to_dict(triple),
          f"{formula_path} over {{{alphabet_text}}}: {len(triple.gamma)} auxiliary letters")


@main.command("from-nivat")
@_TRIPLE
@_MONOID
def from_nivat_command(triple_path, monoid_id):
    """Translate a triple with a sentence language back into the logic."""
    monoid = monoid_from_id(monoid_id)
    triple = serialize.triple_from_dict(_read_json(triple_path))
    formula = wrdl.nivat_to_sentence(triple, monoid)
    _emit({"formula": wrdl.to_text(formula)},
          f"translated {triple_path} back into a restricted sentence")


@main.command("infcost")
@_MODEL
def infcost_command(model_path):
    """Infimum of accepting-run costs of a priced automaton."""
    wta = _load_wta(model_path)
    result = optcost.inf_cost(wta)
    payload = {
        "value": format_weight(result.value),
        "attained": result.attained,
        "witness": (serialize.word_to_list(result.witness)
                    if result.witness is not None else None),
    }
    _emit(payload,
          f"infimum cost of {model_path}: {payload['value']}"
          f" ({'attained' if result.attained else 'not attained'})")


@main.command("decide")
@_FORMULA
@click.option("--monoid", "monoid_id", required=True,
              type=click.Choice(["sum0", "avg0"]),
              help="Threshold problem flavor.")
@click.option("--theta", required=True, help="Threshold, a rational like 15/2.")
@click.option("--alphabet", "alphabet_text", default=None,
              help="Comma-separated alphabet (default: letters in the formula, else 'a').")
@click.option("--non-strict", is_flag=True,
              help="Ask for value <= theta instead of value < theta.")
def decide_command(formula_path, monoid_id, theta, alphabet_text, non_strict):
    """Decide whether some word's value lies below a threshold."""
    monoid = monoid_from_id(monoid_id)
    formula = wrdl.parse_wrdl(_read_text(formula_path), monoid)
    if alphabet_text:
        alphabet = _split_alphabet(alphabet_text)
    else:
        letters = sorted({node.letter for node, _, _ in rdl._walk(formula, wrdl._SYNTAX)
                          if isinstance(node, rdl.Letter)})
        alphabet = tuple(letters) or ("a",)
    threshold = parse_weight(theta)
    if not is_finite(threshold):
        raise click.ClickException(f"--theta must be a finite rational, got {theta!r}")
    strict = not non_strict
    if monoid_id == "sum0":
        result = optcost.decide_sum_threshold(formula, alphabet, threshold,
                                              monoid, strict=strict)
    else:
        result = optcost.decide_avg_threshold(formula, alphabet, threshold,
                                              strict=strict)
    payload = {"exists": result.holds}
    if result.witness is not None:
        payload["witness"] = serialize.word_to_list(result.witness)
    rel = "<" if strict else "<="
    summary = (f"some word valued {rel} {theta} under {monoid_id}: {result.holds}")
    if result.witness is not None:
        summary += (f"; witness {result.witness} valued"
                    f" {format_weight(result.witness_value)}")
    _emit(payload, summary)


@main.command("check-axioms")
@_MONOID
@click.option("--samples", type=click.IntRange(min=1), default=1000, show_default=True,
              help="Number of random samples per law.")
@click.pass_context
def check_axioms_command(ctx, monoid_id, samples):
    """Randomized check of a monoid's declared algebraic laws."""
    monoid = monoid_from_id(monoid_id)
    report = check_axioms(monoid, samples=samples, seed=ctx.obj["seed"])
    payload = {
        "ok": report.passed,
        "failures": [{"law": law, "witness": witness}
                     for law, witness in report.failures],
    }
    _emit(payload,
          f"axioms of {monoid.id} on {samples} samples: "
          f"{'all hold' if report.passed else f'{len(report.failures)} failure(s)'}")


@main.command("fuzz")
@click.option("--suite", required=True, type=click.Choice(["nivat", "wrdl"]),
              help="Differential suite to run.")
@click.option("--seed", type=int, default=None,
              help="Seed for this suite (defaults to the global seed).")
@click.option("--count", type=click.IntRange(min=1), default=100, show_default=True,
              help="Number of cases.")
@click.pass_context
def fuzz_command(ctx, suite, seed, count):
    """Run a seeded differential suite and count mismatches."""
    rng = random.Random(ctx.obj["seed"] if seed is None else seed)
    maxlen = ctx.obj["maxlen"]
    failed = 0
    details = []
    if suite == "nivat":
        monoids = [monoid_from_id(m) for m in ("sum", "avg", "disc:1/2", "prod")]
        for k in range(count):
            monoid = monoids[k % len(monoids)]
            wta = sampling.random_wta(rng, monoid)
            word = sampling.random_word(rng, wta.base.alphabet, max_len=maxlen)
            direct = behavior(wta, word)
            triple = transform.nivat_decompose(wta)
            via_triple = transform.nivat_eval(triple, word, monoid, cap=ctx.obj["cap"])
            via_compose = behavior(
                transform.nivat_compose(triple, monoid, wta.base.alphabet), word)
            if not (monoid.eq(direct, via_triple) and monoid.eq(direct, via_compose)):
                failed += 1
                if len(details) < 5:
                    details.append(f"case {k} ({monoid.id}) on {word}: "
                                   f"{direct} / {via_triple} / {via_compose}")
    else:
        monoid = monoid_from_id("sum0")
        for k in range(count):
            alphabet = ("a",) if rng.random() < 0.5 else ("a", "b")
            sentence = sampling.random_restricted_sentence(rng, alphabet)
            canonical = wrdl.canonicalize(sentence, monoid)
            triple = wrdl.sentence_to_nivat(canonical, alphabet, monoid)
            word = sampling.random_word(rng, alphabet, max_len=min(3, maxlen))
            direct = wrdl.wrdl_eval(sentence, word, monoid)
            via_canonical = wrdl.wrdl_eval(canonical.to_formula(), word, monoid)
            via_triple = transform.nivat_eval(triple, word, monoid, cap=ctx.obj["cap"])
            if not (monoid.eq(direct, via_canonical) and monoid.eq(direct, via_triple)):
                failed += 1
                if len(details) < 5:
                    details.append(f"case {k} on {word}: {direct} / "
                                   f"{via_canonical} / {via_triple}")
    _emit({"pass": count - failed, "fail": failed},
          f"{suite} suite: {count - failed}/{count} passed"
          + ("; " + "; ".join(details) if details else ""))


if __name__ == "__main__":
    main()
