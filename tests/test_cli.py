"""End-to-end command-line tests driven through click's test runner."""

import json
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from click.testing import CliRunner

from conftest import WIDE_UNIVERSAL, ambiguous_counting_triple, random_comparing_sentence
from watl import fixtures, sampling, serialize, transform, wrdl
from watl.cli import main
from watl.core import TimedWord
from watl.monoids import monoid_from_id, register_monoid
from watl.weights import format_weight


runner = CliRunner()


def invoke(*args):
    return runner.invoke(main, [str(a) for a in args], catch_exceptions=False)


def put_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def put_text(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def wta_file(tmp_path, name, wta):
    return put_json(tmp_path, name, serialize.wta_to_dict(wta))


# ---------------------------------------------------------------------------
# Evaluation commands


def test_eval_applies_the_monoid_valuation(tmp_path):
    pairs = put_json(tmp_path, "pairs.json",
                     [["2", "1", "2"], ["1", "1/2", "0"]])
    result = invoke("eval", "--monoid", "sum", "--pairs", pairs)
    assert result.exit_code == 0
    assert result.stdout == '{"value":"11/2"}\n'


def test_behavior_prints_exact_rationals(tmp_path):
    model = wta_file(tmp_path, "m.json", fixtures.first_letter_rates())
    word = put_json(tmp_path, "w.json", [["b", "11/4"]])
    result = invoke("behavior", "--model", model, "--word", word)
    assert result.exit_code == 0
    assert result.stdout == '{"value":"11/2"}\n'
    assert "behavior" in result.stderr


def test_behavior_accepts_timestamp_words(tmp_path):
    model = wta_file(tmp_path, "m.json", fixtures.first_letter_rates())
    delays = put_json(tmp_path, "d.json", [["b", "1"], ["b", "2"]])
    stamps = put_json(tmp_path, "t.json", [["b", "1"], ["b", "3"]])
    plain = invoke("behavior", "--model", model, "--word", delays)
    stamped = invoke("behavior", "--model", model, "--word", stamps,
                     "--timestamps")
    assert plain.exit_code == stamped.exit_code == 0
    assert plain.stdout == stamped.stdout


def test_runs_lists_runs_with_values(tmp_path):
    model = wta_file(tmp_path, "m.json", fixtures.first_letter_rates())
    word = put_json(tmp_path, "w.json", [["a", "1"], ["b", "1"]])
    result = invoke("runs", "--model", model, "--word", word)
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["count"] == len(payload["runs"]) >= 1
    first = payload["runs"][0]
    assert set(first) == {"edges", "locations", "value"}


def test_classify_reports_classes_and_probe(tmp_path):
    model = put_json(tmp_path, "m.json",
                     serialize.automaton_to_dict(fixtures.all_words(("a", "b"))))
    result = invoke("classify", "--model", model)
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["sequential"] is True
    assert payload["unambiguous_flag"] is True
    assert payload["probe_max_runs"] == 1
    assert payload["probe_witness"] is None


# ---------------------------------------------------------------------------
# Closure commands


def test_relabel_renames_letters(tmp_path):
    model = wta_file(tmp_path, "m.json", fixtures.first_letter_rates())
    mapping = put_json(tmp_path, "map.json", {"a": "c", "b": "c"})
    result = invoke("relabel", "--model", model, "--map", mapping,
                    "--alphabet", "c")
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["alphabet"] == ["c"]
    assert all(edge["label"] == "c" for edge in payload["edges"])


def test_comp_realizes_the_letterwise_valuation(tmp_path):
    g = put_json(tmp_path, "g.json", {"a": ["1", "0"], "b": ["2", "1"]})
    result = invoke("comp", "--alphabet", "a,b", "--g", g, "--monoid", "sum")
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["alphabet"] == ["a", "b"]
    assert payload["monoid"] == "sum"

    model = put_text(tmp_path, "comp.json", result.stdout)
    word = put_json(tmp_path, "w.json", [["a", "2"], ["b", "3"]])
    value = invoke("behavior", "--model", model, "--word", word)
    assert value.stdout == '{"value":"9"}\n'


def test_product_intersects_with_an_acceptor(tmp_path):
    model = wta_file(tmp_path, "m.json", fixtures.priced_min_wait())
    language = put_json(tmp_path, "l.json",
                        serialize.automaton_to_dict(fixtures.all_words(("a",))))
    result = invoke("product", "--model", model, "--language", language)
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert "weights" in payload and payload["edges"]


def test_decompose_compose_and_nivat_eval_agree(tmp_path):
    model = wta_file(tmp_path, "m.json", fixtures.first_letter_rates())
    word = put_json(tmp_path, "w.json", [["b", "11/4"]])

    decomposed = invoke("decompose", "--model", model)
    assert decomposed.exit_code == 0
    triple_payload = json.loads(decomposed.stdout)
    assert triple_payload["class"] == "sequential"
    assert triple_payload["gamma"]
    triple = put_text(tmp_path, "triple.json", decomposed.stdout)

    via_triple = invoke("nivat-eval", "--triple", triple, "--word", word,
                        "--monoid", "sum")
    assert via_triple.exit_code == 0
    assert via_triple.stdout == '{"value":"11/2"}\n'

    composed = invoke("compose", "--triple", triple, "--monoid", "sum",
                      "--alphabet", "a,b")
    assert composed.exit_code == 0
    back = put_text(tmp_path, "composed.json", composed.stdout)
    again = invoke("behavior", "--model", back, "--word", word)
    assert again.exit_code == 0
    assert again.stdout == '{"value":"11/2"}\n'


# ---------------------------------------------------------------------------
# Logic commands


def test_rdl_check_reports_truth(tmp_path):
    formula = put_text(tmp_path, "f.txt", "ex x. P[a](x)")
    word = put_json(tmp_path, "w.json", [["b", "1"], ["a", "2"]])
    result = invoke("rdl-check", "--formula", formula, "--word", word)
    assert result.exit_code == 0
    assert result.stdout == '{"holds":true}\n'


def test_rdl_check_uses_the_assignment(tmp_path):
    formula = put_text(tmp_path, "f.txt", "P[a](x)")
    word = put_json(tmp_path, "w.json", [["b", "1"], ["a", "2"]])
    hit = put_json(tmp_path, "hit.json", {"fo": {"x": 2}})
    miss = put_json(tmp_path, "miss.json", {"fo": {"x": 1}})
    assert invoke("rdl-check", "--formula", formula, "--word", word,
                  "--assign", hit).stdout == '{"holds":true}\n'
    assert invoke("rdl-check", "--formula", formula, "--word", word,
                  "--assign", miss).stdout == '{"holds":false}\n'


def test_wrdl_eval_squares_the_length(tmp_path):
    formula = put_text(tmp_path, "f.txt", "all x.(0, all y.(0, 1))")
    word = put_json(tmp_path, "w.json", [["a", "1"]] * 3)
    result = invoke("wrdl-eval", "--formula", formula, "--word", word,
                    "--monoid", "sum0")
    assert result.exit_code == 0
    assert result.stdout == '{"value":"9"}\n'


def test_wrdl_eval_orders_a_constant_against_a_discounted_universal(tmp_path):
    formula = put_text(tmp_path, "f.txt", "(0 | (all x. (1, 1)))")
    word = put_json(tmp_path, "w.json", [["a", "1"]])
    result = invoke("wrdl-eval", "--formula", formula, "--word", word,
                    "--monoid", "disc0:1/2")
    assert result.exit_code == 0
    assert result.stdout == '{"value":"0"}\n'
    assert "Traceback" not in result.stderr


def test_wrdl_classify_reports_fragments(tmp_path):
    formula = put_text(tmp_path, "f.txt", "all x.(0, all y.(0, 1))")
    result = invoke("wrdl-classify", "--formula", formula)
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["sentence"] is True
    assert payload["syntactically_restricted"] is False
    assert "almost_boolean" in payload


def test_canonicalize_lists_the_guard_family(tmp_path):
    formula = put_text(tmp_path, "f.txt", "B(ex x. P[a](x))")
    result = invoke("canonicalize", "--formula", formula, "--monoid", "sum0")
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert len(payload["guards"]) == 2
    assert payload["left"] == ["0", "0"]
    assert payload["right"] == ["0", "inf"]


def test_to_nivat_and_back(tmp_path):
    formula = put_text(tmp_path, "f.txt", "B(ex x. P[a](x))")
    forth = invoke("to-nivat", "--formula", formula, "--monoid", "sum0",
                   "--alphabet", "a,b")
    assert forth.exit_code == 0
    payload = json.loads(forth.stdout)
    assert payload["class"] == "sentence"
    assert payload["gamma"]

    triple = put_text(tmp_path, "triple.json", forth.stdout)
    back = invoke("from-nivat", "--triple", triple, "--monoid", "sum0")
    assert back.exit_code == 0
    text = json.loads(back.stdout)["formula"]
    parsed = wrdl.parse_wrdl(text, None)
    assert wrdl.wrdl_classify(parsed).syntactically_restricted


def test_a_back_translation_decides(tmp_path):
    # The README example's way back has a guard family of 2 set variables
    # and 5 global parts.
    formula = put_text(tmp_path, "f.txt", "B(ex x. P[a](x))")
    forth = invoke("to-nivat", "--formula", formula, "--monoid", "sum0", "--alphabet", "a,b")
    triple = put_text(tmp_path, "triple.json", forth.stdout)
    back = invoke("from-nivat", "--triple", triple, "--monoid", "sum0")
    formula = put_text(tmp_path, "back.txt", json.loads(back.stdout)["formula"])
    result = invoke("decide", "--formula", formula, "--monoid", "sum0", "--theta", "2")
    assert result.exit_code == 0
    assert result.stdout == '{"exists":true,"witness":[["a","0"]]}\n'


def test_wide_canonical_sentences_translate(tmp_path):
    formula = put_text(tmp_path, "f.txt", WIDE_UNIVERSAL)
    result = invoke("to-nivat", "--formula", formula, "--monoid", "sum0", "--alphabet", "a")
    assert result.exit_code == 0
    triple = json.loads(result.stdout)
    assert len(triple["gamma"]) == 9
    assert triple["class"] == "sentence"


# ---------------------------------------------------------------------------
# Round trips: each command that writes a model, triple or formula feeds
# its output to the commands that read it.


DEEP = "Error: formula nested too deeply\n"


def written(tmp_path, name, *args, field=None):
    """Run a command that writes a model, triple or formula and save its
    output, or one field of it, as the file name."""
    result = invoke(*args)
    assert result.exit_code == 0, result.stderr
    return put_text(tmp_path, name, json.loads(result.stdout)[field] if field else result.stdout)


def value_of(*args):
    """The value a command prints, or the one line with which it refuses."""
    result = invoke(*args)
    if result.exit_code:
        assert_clean_refusal(result)
        return result.stderr
    return json.loads(result.stdout)["value"]


@pytest.mark.parametrize("monoid", ["sum", "avg", "prod"])
def test_written_models_and_triples_read_back(tmp_path, monoid):
    rng = random.Random(2727)
    natural = monoid == "prod"
    language = put_json(tmp_path, "l.json", serialize.automaton_to_dict(fixtures.all_words()))
    rename = {"a": "c", "b": "d"}
    renaming = put_json(tmp_path, "map.json", rename)
    for _ in range(4):
        model = wta_file(tmp_path, "m.json", sampling.random_wta(rng, monoid_from_id(monoid)))
        g = {letter: [format_weight(sampling.random_weight(rng, natural)) for _ in "mw"]
             for letter in "ab"}
        comp = written(tmp_path, "g.json", "comp", "--alphabet", "a,b",
                       "--g", put_json(tmp_path, "g_in.json", g), "--monoid", monoid)
        models = {
            "m": model,
            "composed": written(tmp_path, "c.json", "compose", "--monoid", monoid, "--alphabet",
                                "a,b", "--triple", written(tmp_path, "t.json", "decompose",
                                                           "--model", model)),
            "relabeled": written(tmp_path, "r.json", "relabel", "--model", model,
                                 "--map", renaming, "--alphabet", "c,d"),
            "product": written(tmp_path, "p.json", "product", "--model", model,
                               "--language", language),
        }
        triples = {name: written(tmp_path, f"{name}_t.json", "decompose", "--model", path)
                   for name, path in {**models, "comp": comp}.items()}
        for _ in range(3):
            word = sampling.random_word(rng, ("a", "b"), max_len=3)
            plain = put_json(tmp_path, "w.json", serialize.word_to_list(word))
            renamed = put_json(tmp_path, "wr.json", [[rename[letter], delay] for letter, delay
                                                     in serialize.word_to_list(word)])
            pairs = put_json(tmp_path, "pairs.json", [g[letter] + [format_weight(delay)]
                                                      for letter, delay in word])
            expected = value_of("behavior", "--model", model, "--word", plain)
            for name, path in models.items():
                at = renamed if name == "relabeled" else plain
                assert value_of("behavior", "--model", path, "--word", at) == expected
                assert value_of("nivat-eval", "--triple", triples[name], "--word", at,
                                "--monoid", monoid) == expected
            letterwise = value_of("eval", "--pairs", pairs, "--monoid", monoid)
            assert value_of("behavior", "--model", comp, "--word", plain) == letterwise
            assert value_of("nivat-eval", "--triple", triples["comp"], "--word", plain,
                            "--monoid", monoid) == letterwise


def check_sentence_round_trip(tmp_path, text, monoid, words, deep):
    """Feed a sentence to canonicalize and to-nivat, the triple to
    from-nivat, and every output to the commands that read it: each
    evaluation gives the value of the sentence or, where ``deep``, one of
    them refuses the depth cleanly.  Returns the from-nivat formula file."""
    formula = put_text(tmp_path, "f.txt", text)
    canonical = written(tmp_path, "c.txt", "canonicalize", "--formula", formula,
                        "--monoid", monoid, field="formula")
    triple = written(tmp_path, "t.json", "to-nivat", "--formula", formula,
                     "--monoid", monoid, "--alphabet", "a,b")
    back = written(tmp_path, "b.txt", "from-nivat", "--triple", triple,
                   "--monoid", monoid, field="formula")
    for path in (canonical, back):
        classes = json.loads(invoke("wrdl-classify", "--formula", path).stdout)
        assert classes["sentence"] and classes["syntactically_restricted"]
    for word in words:
        at = put_json(tmp_path, "w.json", serialize.word_to_list(word))
        expected = value_of("wrdl-eval", "--formula", formula, "--word", at, "--monoid", monoid)
        for reader in (("wrdl-eval", "--formula", canonical), ("wrdl-eval", "--formula", back),
                       ("nivat-eval", "--triple", triple)):
            value = value_of(*reader, "--word", at, "--monoid", monoid)
            assert value == expected or deep and DEEP in (value, expected)
    return back


def check_back_translation_reads(tmp_path, back, monoid):
    """What from-nivat writes, canonicalize and to-nivat read."""
    written(tmp_path, "c2.json", "canonicalize", "--formula", back, "--monoid", monoid)
    written(tmp_path, "t2.json", "to-nivat", "--formula", back, "--monoid", monoid,
            "--alphabet", "a,b")


@pytest.mark.parametrize("monoid", ["sum0", "avg0"])
def test_written_sentences_and_triples_read_back(tmp_path, monoid):
    # Not fed back: canonicalize's own output, whose guard family
    # canonicalize refines again, to 2^(2n) guards for n.
    rng = random.Random(2728)
    for draw in range(8):
        draw_sentence = random_comparing_sentence if draw % 2 else sampling.random_restricted_sentence
        words = [sampling.random_word(rng, ("a", "b"), max_len=3) for _ in range(2)]
        back = check_sentence_round_trip(tmp_path, wrdl.to_text(draw_sentence(rng)), monoid,
                                         words, deep=False)
        check_back_translation_reads(tmp_path, back, monoid)


@pytest.mark.parametrize("conjuncts", [72, 400, 4000])
def test_long_conjunctions_read_back(tmp_path, conjuncts):
    text = "B(ex x. " + " & ".join(["P[a](x)"] * conjuncts) + ")"
    words = [TimedWord.from_pairs([("b", 1), ("a", Fraction(1, 2))])]
    back = check_sentence_round_trip(tmp_path, text, "sum0", words, deep=True)
    if conjuncts < 4000:  # 4,000 conjuncts back take seconds to translate again
        check_back_translation_reads(tmp_path, back, "sum0")


def test_letters_holding_a_closing_bracket_are_refused_cleanly(tmp_path):
    formula = put_text(tmp_path, "f.txt", "B(ex x. P[a](x))")
    result = invoke("to-nivat", "--formula", formula, "--monoid", "sum0",
                    "--alphabet", "a,a]b")
    assert_clean_refusal(result)
    assert result.stdout == ""
    assert result.stderr == (
        "Error: letter 'a]b' holds ']', which a letter test cannot write\n")


def test_h_letters_holding_a_closing_bracket_are_refused_cleanly(tmp_path):
    formula = put_text(tmp_path, "f.txt", "B(ex x. P[a](x))")
    forth = invoke("to-nivat", "--formula", formula, "--monoid", "sum0", "--alphabet", "a")
    data = json.loads(forth.stdout)
    data["h"] = {c: "a]" for c in data["h"]}
    result = invoke("from-nivat", "--triple", put_json(tmp_path, "t.json", data),
                    "--monoid", "sum0")
    assert_clean_refusal(result)
    assert result.stdout == ""
    assert result.stderr == (
        "Error: letter 'a]' holds ']', which a letter test cannot write\n")


def test_repeated_alphabet_letters_are_refused_cleanly(tmp_path):
    formula = put_text(tmp_path, "f.txt", "B(ex x. P[a](x))")
    result = invoke("to-nivat", "--formula", formula, "--monoid", "sum0",
                    "--alphabet", "a,a")
    assert_clean_refusal(result)
    assert result.stdout == ""
    assert result.stderr == "Error: repeated alphabet letter\n"


# ---------------------------------------------------------------------------
# Decision commands


def test_infcost_output_is_byte_stable(tmp_path):
    model = wta_file(tmp_path, "m.json", fixtures.priced_min_wait())
    result = invoke("infcost", "--model", model)
    assert result.exit_code == 0
    assert result.stdout == '{"value":"7","attained":true,"witness":[["a","2"]]}\n'


def test_decide_ships_a_witness(tmp_path):
    formula = put_text(tmp_path, "f.txt",
                       wrdl.to_text(fixtures.min_wait_sentence()))
    result = invoke("decide", "--formula", formula, "--monoid", "sum0",
                    "--theta", "15/2")
    assert result.exit_code == 0
    assert result.stdout == '{"exists":true,"witness":[["a","2"]]}\n'
    assert "witness" in result.stderr


def test_decide_strict_threshold_at_the_infimum_fails(tmp_path):
    formula = put_text(tmp_path, "f.txt",
                       wrdl.to_text(fixtures.min_wait_sentence()))
    strict = invoke("decide", "--formula", formula, "--monoid", "sum0",
                    "--theta", "7")
    assert strict.stdout == '{"exists":false}\n'
    weak = invoke("decide", "--formula", formula, "--monoid", "sum0",
                  "--theta", "7", "--non-strict")
    assert weak.stdout == '{"exists":true,"witness":[["a","2"]]}\n'


def test_decide_average_flavor(tmp_path):
    formula = put_text(tmp_path, "f.txt",
                       wrdl.to_text(fixtures.min_wait_sentence()))
    at_limit = invoke("decide", "--formula", formula, "--monoid", "avg0",
                      "--theta", "3", "--alphabet", "a")
    assert at_limit.exit_code == 0
    assert json.loads(at_limit.stdout) == {"exists": False}
    above = invoke("decide", "--formula", formula, "--monoid", "avg0",
                   "--theta", "31/10", "--alphabet", "a")
    payload = json.loads(above.stdout)
    assert payload["exists"] is True and payload["witness"]


def test_decide_reads_a_distance_test_through_a_clock(tmp_path):
    # The README's set-variable example: dpast[>=2](X, x) at the only
    # position of a word holds once 2 time units have passed, whatever X.
    formula = put_text(tmp_path, "wait.txt", "EX X. all x. (B(dpast[>=2](X, x)), 1)")
    verdicts = [invoke("decide", "--formula", formula, "--monoid", "sum0", "--theta", theta)
                for theta in ("2", "1")]
    assert [result.stdout for result in verdicts] == [
        '{"exists":true,"witness":[["a","2"]]}\n', '{"exists":false}\n']


def test_decide_handles_an_existential_nested_in_a_global_part(tmp_path):
    # The inner existential becomes a global part of its own, guessed and
    # verified like the outer one: the sentence holds exactly on words with
    # a b, each valued 3 * duration + length.
    text = "B(ex w1. ex w0. P[b](w0)) & all x. (3, 1)"
    formula = put_text(tmp_path, "f.txt", text)

    def decide(monoid, theta):
        result = invoke("decide", "--formula", formula, "--monoid", monoid,
                        "--theta", theta, "--alphabet", "a,b")
        assert result.exit_code == 0
        return result.stdout

    assert decide("sum0", "2") == '{"exists":true,"witness":[["b","0"]]}\n'
    assert decide("sum0", "1") == '{"exists":false}\n'
    payload = json.loads(decide("avg0", "4"))
    assert payload["exists"] is True
    word = serialize.word_from_list(payload["witness"])
    assert word.duration > 0
    assert wrdl.wrdl_eval(wrdl.parse_wrdl(text), word, monoid_from_id("avg0")) < 4


# ---------------------------------------------------------------------------
# Randomized commands


def test_check_axioms_passes_for_declared_laws():
    result = invoke("check-axioms", "--monoid", "sum", "--samples", "300")
    assert result.exit_code == 0
    assert result.stdout == '{"ok":true,"failures":[]}\n'


def test_check_axioms_honors_declared_laws():
    # the counting monoid declares itself non-idempotent, so it passes
    result = invoke("check-axioms", "--monoid", "prod", "--samples", "300")
    assert result.exit_code == 0
    assert json.loads(result.stdout) == {"ok": True, "failures": []}


def test_check_axioms_flags_a_wrongly_declared_law():
    def flagged(arg=None):
        monoid = monoid_from_id("prod")
        monoid.idempotent = True
        return monoid

    register_monoid("prod-claims-idempotent", flagged)
    result = invoke("check-axioms", "--monoid", "prod-claims-idempotent",
                    "--samples", "300")
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["ok"] is False
    assert {f["law"] for f in payload["failures"]} == {"plus-idempotent"}
    assert all(f["witness"] for f in payload["failures"])


def test_fuzz_nivat_suite_passes():
    result = invoke("fuzz", "--suite", "nivat", "--count", "6")
    assert result.exit_code == 0
    assert result.stdout == '{"pass":6,"fail":0}\n'


def test_fuzz_wrdl_suite_passes():
    result = invoke("fuzz", "--suite", "wrdl", "--count", "5")
    assert result.exit_code == 0
    assert result.stdout == '{"pass":5,"fail":0}\n'


def test_fuzz_is_seed_reproducible():
    first = invoke("--seed", "7", "fuzz", "--suite", "nivat", "--count", "5")
    second = invoke("--seed", "7", "fuzz", "--suite", "nivat", "--count", "5")
    assert first.exit_code == second.exit_code == 0
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr


# ---------------------------------------------------------------------------
# Error reporting


def test_fractional_guard_bound_is_refused(tmp_path):
    data = serialize.automaton_to_dict(fixtures.all_words(("a",)))
    data["edges"][0]["guard"] = "x >= 1/2"
    data["clocks"] = ["x"]
    model = put_json(tmp_path, "m.json", data)
    word = put_json(tmp_path, "w.json", [["a", "1"]])
    result = invoke("runs", "--model", model, "--word", word)
    assert result.exit_code != 0
    assert "natural" in result.stderr


def test_undeclared_clock_is_named(tmp_path):
    data = serialize.automaton_to_dict(fixtures.all_words(("a",)))
    data["edges"][0]["id"] = "e1"
    data["edges"][0]["guard"] = "q >= 1"
    data["clocks"] = ["x"]
    model = put_json(tmp_path, "m.json", data)
    word = put_json(tmp_path, "w.json", [["a", "1"]])
    result = invoke("runs", "--model", model, "--word", word)
    assert result.exit_code != 0
    assert "e1" in result.stderr and "q" in result.stderr


def test_weightless_model_is_refused_where_weights_are_needed(tmp_path):
    model = put_json(tmp_path, "m.json",
                     serialize.automaton_to_dict(fixtures.all_words(("a",))))
    word = put_json(tmp_path, "w.json", [["a", "1"]])
    result = invoke("behavior", "--model", model, "--word", word)
    assert result.exit_code != 0
    assert "no weights" in result.stderr


def test_preimage_cap_is_configurable(tmp_path):
    path = put_json(tmp_path, "t.json",
                    serialize.triple_to_dict(ambiguous_counting_triple()))
    word = put_json(tmp_path, "w.json", [["a", "1"]] * 4)
    args = ("nivat-eval", "--triple", path, "--word", word, "--monoid", "prod")
    result = invoke("--cap-preimages", "10", *args)
    assert result.exit_code != 0
    assert "cap" in result.stderr
    assert invoke("--cap-preimages", "16", *args).exit_code == 0


def test_garbage_json_is_reported(tmp_path):
    path = put_text(tmp_path, "w.json", "{not json")
    model = wta_file(tmp_path, "m.json", fixtures.first_letter_rates())
    result = invoke("behavior", "--model", model, "--word", path)
    assert result.exit_code != 0
    assert "not valid JSON" in result.stderr


def assert_clean_refusal(result):
    assert result.exit_code != 0
    assert "Traceback" not in result.stderr
    assert len(result.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("positions", [["abc"], [1.7], [True]])
def test_bad_assignment_positions_are_refused_cleanly(tmp_path, positions):
    formula = put_text(tmp_path, "f.txt", "X(x)")
    word = put_json(tmp_path, "w.json", [["a", "1"], ["a", "1"]])
    assign = put_json(tmp_path, "a.json", {"fo": {"x": 1}, "so": {"X": positions}})
    result = invoke("rdl-check", "--formula", formula, "--word", word,
                    "--assign", assign)
    assert_clean_refusal(result)
    assert "'X'" in result.stderr


@pytest.mark.parametrize("monoid", ["sum0", "avg0"])
def test_deciding_formulas_too_deep_to_compile_is_refused_cleanly(tmp_path, monoid):
    text = "B(ex x. " + " & ".join(["P[a](x)"] * 400) + ")"
    formula = put_text(tmp_path, "f.txt", text)
    result = invoke("decide", "--formula", formula, "--monoid", monoid, "--theta", "1")
    assert_clean_refusal(result)
    assert result.stderr == "Error: formula nested too deeply\n"


def test_deeply_nested_formulas_are_refused_cleanly(tmp_path):
    formula = put_text(tmp_path, "f.txt", "!" * 2000 + "ex x. P[a](x)")
    word = put_json(tmp_path, "w.json", [["a", "1"]])
    result = invoke("rdl-check", "--formula", formula, "--word", word)
    assert_clean_refusal(result)
    assert "nested too deeply" in result.stderr


@pytest.mark.parametrize("delay", ["abc", "1/0", "-1", "inf", "1e5000"])
def test_bad_delays_are_refused_cleanly(tmp_path, delay):
    model = wta_file(tmp_path, "m.json", fixtures.first_letter_rates())
    word = put_json(tmp_path, "w.json", [["a", "1"], ["b", delay]])
    result = invoke("behavior", "--model", model, "--word", word)
    assert_clean_refusal(result)
    assert "entry 1" in result.stderr


def test_decreasing_timestamps_are_refused_cleanly(tmp_path):
    model = wta_file(tmp_path, "m.json", fixtures.first_letter_rates())
    word = put_json(tmp_path, "w.json", [["a", "3"], ["b", "1"]])
    result = invoke("behavior", "--model", model, "--word", word, "--timestamps")
    assert_clean_refusal(result)
    assert "non-decreasing" in result.stderr


@pytest.mark.parametrize("weight", ["abc", "1/0"])
def test_bad_model_weights_are_refused_cleanly(tmp_path, weight):
    data = serialize.wta_to_dict(fixtures.first_letter_rates())
    edge = next(iter(data["weights"]["edges"]))
    data["weights"]["edges"][edge] = weight
    model = put_json(tmp_path, "m.json", data)
    word = put_json(tmp_path, "w.json", [["a", "1"]])
    result = invoke("behavior", "--model", model, "--word", word)
    assert_clean_refusal(result)
    assert edge in result.stderr


def test_bad_triple_weights_are_refused_cleanly(tmp_path):
    data = serialize.triple_to_dict(transform.nivat_decompose(fixtures.first_letter_rates()))
    letter = data["gamma"][0]
    data["g"][letter] = ["1", "x/2"]
    path = put_json(tmp_path, "t.json", data)
    word = put_json(tmp_path, "w.json", [["a", "1"]])
    result = invoke("nivat-eval", "--triple", path, "--word", word, "--monoid", "sum")
    assert_clean_refusal(result)
    assert f"g2({letter})" in result.stderr


@pytest.mark.parametrize("entry", [["1", "abc", "2"], ["1", "1", "-2"], ["1/0", "1", "2"]])
def test_bad_valuation_pairs_are_refused_cleanly(tmp_path, entry):
    pairs = put_json(tmp_path, "pairs.json", [entry])
    assert_clean_refusal(invoke("eval", "--monoid", "sum", "--pairs", pairs))


def test_bad_letter_weights_are_refused_cleanly(tmp_path):
    g = put_json(tmp_path, "g.json", {"a": ["1", "1/0"]})
    assert_clean_refusal(invoke("comp", "--alphabet", "a", "--g", g, "--monoid", "sum"))


def _put_at(data, path, value):
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return data


@pytest.mark.parametrize("source, path, value", [
    ("model", ("weights", "locations"), ["w"]),
    ("model", ("weights", "edges"), "w"),
    ("model", ("edges", 0, "resets"), 5),
    ("model", ("edges", 0, "resets"), "x"),
    ("model", ("alphabet",), 5),
    ("model", ("alphabet",), "a"),
    ("triple", ("h",), [["first_a", "a"]]),
    ("triple", ("g",), [["1", "0"]]),
    ("triple", ("gamma",), "ab"),
])
def test_misshapen_json_is_refused_cleanly(tmp_path, source, path, value):
    word = put_json(tmp_path, "w.json", [["a", "3"]])
    if source == "model":
        data = _put_at(serialize.wta_to_dict(fixtures.priced_min_wait()), path, value)
        result = invoke("behavior", "--model", put_json(tmp_path, "m.json", data),
                        "--word", word)
    else:
        triple = transform.nivat_decompose(fixtures.first_letter_rates())
        data = _put_at(serialize.triple_to_dict(triple), path, value)
        result = invoke("nivat-eval", "--triple", put_json(tmp_path, "t.json", data),
                        "--word", word, "--monoid", "sum")
    assert_clean_refusal(result)
    assert result.stderr.startswith("Error: ")
    assert "must be a list" in result.stderr or "must be an object" in result.stderr


def test_letter_maps_given_as_lists_are_refused_cleanly(tmp_path):
    g = put_json(tmp_path, "g.json", [["1", "0"]])
    result = invoke("comp", "--alphabet", "a", "--g", g, "--monoid", "sum")
    assert_clean_refusal(result)
    assert result.stderr == "Error: letter weights must be an object, got list\n"
    model = wta_file(tmp_path, "m.json", fixtures.first_letter_rates())
    mapping = put_json(tmp_path, "map.json", ["a", "c"])
    result = invoke("relabel", "--model", model, "--map", mapping)
    assert_clean_refusal(result)
    assert result.stderr == "Error: letter map must be an object, got list\n"


@pytest.mark.parametrize("theta", ["abc", "1/0", "inf"])
def test_bad_thresholds_are_refused_cleanly(tmp_path, theta):
    formula = put_text(tmp_path, "lin.txt", "all z. (3, 1)")
    result = invoke("decide", "--formula", formula, "--monoid", "sum0", "--theta", theta)
    assert_clean_refusal(result)


@pytest.mark.parametrize("command, monoid", [("eval", "disc:abc"), ("eval", "disc0:1/0"),
                                             ("wrdl-eval", "disc0:zz"),
                                             ("behavior", "disc:1/0")])
def test_malformed_discount_factors_are_refused_cleanly(tmp_path, command, monoid):
    word = put_json(tmp_path, "w.json", [["a", "1"]])
    if command == "eval":
        args = ("--monoid", monoid, "--pairs", put_json(tmp_path, "p.json", [["1", "1", "1"]]))
    elif command == "wrdl-eval":
        args = ("--monoid", monoid, "--word", word,
                "--formula", put_text(tmp_path, "f.txt", "all x.(1, 1)"))
    else:
        data = serialize.wta_to_dict(fixtures.first_letter_rates())
        data["monoid"] = monoid
        args = ("--model", put_json(tmp_path, "m.json", data), "--word", word)
    result = invoke(command, *args)
    assert_clean_refusal(result)
    assert result.stderr == f"Error: malformed discount factor {monoid.partition(':')[2]!r}\n"


@pytest.mark.parametrize("args", [
    ("--max-word-len", "0", "fuzz", "--suite", "nivat", "--count", "2"),
    ("check-axioms", "--monoid", "sum", "--samples", "-3"),
    ("fuzz", "--suite", "wrdl", "--count", "-2"),
    ("fuzz", "--suite", "nivat", "--count", "0"),
    ("classify", "--model", "MODEL", "--samples", "0"),
])
def test_counts_below_one_are_refused(tmp_path, args):
    model = wta_file(tmp_path, "m.json", fixtures.first_letter_rates())
    result = invoke(*(model if arg == "MODEL" else arg for arg in args))
    assert result.exit_code == 2
    assert "Traceback" not in result.stderr
    assert "Invalid value" in result.stderr and ">=1" in result.stderr


def test_long_words_evaluate_and_list_runs(tmp_path):
    model = wta_file(tmp_path, "m.json", fixtures.duration_meter())
    word = put_json(tmp_path, "w.json", [["a", "1/2"]] * 1500)
    result = invoke("behavior", "--model", model, "--word", word)
    assert result.exit_code == 0
    assert result.stdout == '{"value":"750"}\n'
    result = invoke("runs", "--model", model, "--word", word)
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["count"] == 1
    assert len(payload["runs"][0]["edges"]) == 1500
    assert payload["runs"][0]["value"] == "750"


@pytest.mark.parametrize("command, text", [
    ("rdl-check", "dpast[<\u00b2](X,x)"),
    ("rdl-check", "dpast[<" + "9" * 5000 + "](X,x)"),
    ("wrdl-classify", "\u00b2"),
    ("wrdl-classify", "9" * 5000),
], ids=["superscript bound", "5000-digit bound", "superscript constant", "5000-digit constant"])
def test_numbers_that_are_not_naturals_are_refused_cleanly(tmp_path, command, text):
    formula = put_text(tmp_path, "f.txt", text)
    word = put_json(tmp_path, "w.json", [["a", "1"]])
    extra = ("--word", word) if command == "rdl-check" else ()
    result = invoke(command, "--formula", formula, *extra)
    assert_clean_refusal(result)
    assert "(column " in result.stderr


def test_values_of_more_digits_than_str_converts_print_exactly(tmp_path):
    pairs = put_json(tmp_path, "pairs.json", [[0, 3, 1]] * 10000)
    result = invoke("eval", "--monoid", "prod", "--pairs", pairs)
    assert result.exit_code == 0
    assert Decimal(json.loads(result.stdout)["value"]) == 3 ** 10000


@pytest.mark.parametrize("command", ["wrdl-eval", "decide"])
@pytest.mark.parametrize("text", ["1/0", "all x.(1, -3/0)"])
def test_zero_denominators_are_refused_cleanly(tmp_path, command, text):
    formula = put_text(tmp_path, "f.txt", text)
    word = put_json(tmp_path, "w.json", [["a", "1"]])
    extra = ("--word", word) if command == "wrdl-eval" else ("--theta", "1")
    result = invoke(command, "--formula", formula, "--monoid", "sum0", *extra)
    assert_clean_refusal(result)
    assert "zero denominator (column" in result.stderr


@pytest.mark.parametrize("text", [
    "ex x. " + " & ".join(["P[a](x)"] * 400),
    "ex x. " + " | ".join(["P[a](x)"] * 3000),
], ids=["conjuncts", "disjuncts"])
@pytest.mark.parametrize("command", ["rdl-check", "wrdl-eval"])
def test_long_connective_chains_are_refused_cleanly(tmp_path, text, command):
    word = put_json(tmp_path, "w.json", [["a", "1"]])
    extra = ()
    if command == "wrdl-eval":
        text, extra = f"B({text})", ("--monoid", "sum0")
    formula = put_text(tmp_path, "f.txt", text)
    result = invoke(command, "--formula", formula, "--word", word, *extra)
    assert_clean_refusal(result)
    assert result.stderr == "Error: formula nested too deeply\n"
