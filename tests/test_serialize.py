"""Round trips and error reporting for the JSON interchange formats."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from watl import fixtures, serialize, transform, wrdl
from watl.core import TimedWord
from watl.errors import ParseError
from watl.monoids import monoid_from_id

from conftest import wd

SUM0 = monoid_from_id("sum0")


# ---------------------------------------------------------------------------
# Timed words


def test_word_round_trip_keeps_fractions():
    word = wd(("a", Fraction(1, 2)), ("b", 0), ("a", Fraction(7, 3)))
    items = serialize.word_to_list(word)
    assert items == [["a", "1/2"], ["b", "0"], ["a", "7/3"]]
    assert serialize.word_from_list(items) == word


def test_word_from_timestamps_takes_differences():
    word = serialize.word_from_list([["a", "1"], ["b", "3"]], timestamps=True)
    assert word.letters == ("a", "b")
    assert word.delays == (Fraction(1), Fraction(2))


def test_decreasing_timestamps_are_rejected():
    with pytest.raises(ValueError, match="non-decreasing"):
        serialize.word_from_list([["a", "3"], ["b", "1"]], timestamps=True)


def test_malformed_word_entries_are_rejected():
    with pytest.raises(ParseError, match="non-empty"):
        serialize.word_from_list([])
    with pytest.raises(ParseError, match="entry 1"):
        serialize.word_from_list([["a", "1"], ["b"]])


@pytest.mark.parametrize("value", ["abc", "1/0", "-1", "inf", "1/-2"])
def test_malformed_and_negative_delays_are_parse_errors(value):
    with pytest.raises(ParseError, match="entry 1"):
        serialize.word_from_list([["a", "1"], ["b", value]])
    with pytest.raises(ParseError, match="timestamp of word entry 0"):
        serialize.word_from_list([["a", value]], timestamps=True)


@given(st.lists(st.tuples(st.sampled_from("ab"),
                          st.fractions(min_value=0, max_value=4)),
                min_size=1, max_size=6))
def test_word_round_trip_is_identity(entries):
    word = TimedWord.from_pairs(entries)
    assert serialize.word_from_list(serialize.word_to_list(word)) == word


# ---------------------------------------------------------------------------
# Automata and weighted automata


def test_automaton_round_trip():
    base = fixtures.priced_min_wait().base
    data = serialize.automaton_to_dict(base)
    assert serialize.automaton_from_dict(data) == base


def test_unambiguous_flag_emitted_only_when_set():
    marked = fixtures.all_words(("a",))
    assert marked.unambiguous
    assert serialize.automaton_to_dict(marked)["unambiguous"] is True

    plain = fixtures.all_words_ambiguous(("a", "b"))
    assert not plain.unambiguous
    assert "unambiguous" not in serialize.automaton_to_dict(plain)


def test_automaton_round_trip_keeps_flag():
    marked = fixtures.all_words(("a", "b"))
    back = serialize.automaton_from_dict(serialize.automaton_to_dict(marked))
    assert back.unambiguous


def test_missing_automaton_fields_listed_together():
    with pytest.raises(ParseError) as err:
        serialize.automaton_from_dict({"alphabet": ["a"]})
    message = str(err.value)
    for field in ("locations", "clocks", "initial", "final", "edges"):
        assert field in message


def test_missing_edge_fields_name_the_edge():
    data = serialize.automaton_to_dict(fixtures.all_words(("a",)))
    data["edges"][0] = {"id": "e0"}
    with pytest.raises(ParseError, match="edge 0"):
        serialize.automaton_from_dict(data)


def test_loaded_automaton_is_validated():
    data = serialize.automaton_to_dict(fixtures.all_words(("a",)))
    data["edges"][0]["guard"] = "q >= 1"
    with pytest.raises(Exception, match="undeclared clock"):
        serialize.automaton_from_dict(data)


@pytest.mark.parametrize("field, value", [
    ("alphabet", 5), ("alphabet", "a"), ("locations", {"wait": 1, "done": 2}),
    ("clocks", "x"), ("initial", "wait"), ("final", None), ("edges", {"go": 1}),
])
def test_automaton_lists_must_be_lists(field, value):
    # A string would otherwise be read as the list of its characters.
    data = serialize.automaton_to_dict(fixtures.priced_min_wait().base)
    data[field] = value
    with pytest.raises(ParseError, match=f"automaton {field} must be a list, got"):
        serialize.automaton_from_dict(data)


@pytest.mark.parametrize("value", ["false", 0, 1, None])
def test_unambiguous_flag_must_be_a_bool(value):
    # bool("false") is True: the string would declare an ambiguous
    # automaton unambiguous.
    data = serialize.automaton_to_dict(fixtures.all_words_ambiguous(("a",)))
    data["unambiguous"] = value
    with pytest.raises(ParseError, match="automaton unambiguous must be true or false, got"):
        serialize.automaton_from_dict(data)


@pytest.mark.parametrize("value", [5, "x", {"x": 1}])
def test_edge_resets_must_be_a_list(value):
    data = serialize.automaton_to_dict(fixtures.priced_min_wait().base)
    data["edges"][0]["resets"] = value
    with pytest.raises(ParseError, match="resets of edge 0 must be a list, got"):
        serialize.automaton_from_dict(data)


def test_wta_round_trip():
    wta = fixtures.priced_min_wait()
    data = serialize.wta_to_dict(wta)
    back = serialize.wta_from_dict(data)
    assert serialize.wta_to_dict(back) == data
    assert back.monoid.id == wta.monoid.id
    assert back.location_weights == dict(wta.location_weights)
    assert back.edge_weights == dict(wta.edge_weights)


def test_wta_dict_wraps_the_base_automaton():
    wta = fixtures.two_step_chain()
    data = serialize.wta_to_dict(wta)
    assert data["monoid"] == wta.monoid.id
    assert set(data["weights"]) == {"locations", "edges"}
    base_only = {k: v for k, v in data.items() if k not in ("monoid", "weights")}
    assert base_only == serialize.automaton_to_dict(wta.base)


# ---------------------------------------------------------------------------
# Nivat triples


@pytest.mark.parametrize("value", ["abc", "1/0", "2/x"])
def test_malformed_model_weights_are_parse_errors(value):
    data = serialize.wta_to_dict(fixtures.first_letter_rates())
    location = next(iter(data["weights"]["locations"]))
    data["weights"]["locations"][location] = value
    with pytest.raises(ParseError, match=f"location {location!r}"):
        serialize.wta_from_dict(data)


@pytest.mark.parametrize("kind", ["location", "edge"])
@pytest.mark.parametrize("value", [["w"], "w", 5])
def test_model_weight_maps_must_be_objects(kind, value):
    data = serialize.wta_to_dict(fixtures.first_letter_rates())
    data["weights"][f"{kind}s"] = value
    with pytest.raises(ParseError, match=f"{kind} weights must be an object, got"):
        serialize.wta_from_dict(data)


def test_missing_model_weights_are_listed():
    data = serialize.wta_to_dict(fixtures.first_letter_rates())
    edge = next(iter(data["weights"]["edges"]))
    del data["weights"]["edges"][edge]
    with pytest.raises(ParseError, match=f"missing for edge {edge!r}"):
        serialize.wta_from_dict(data)


def test_malformed_letter_weights_are_parse_errors():
    data = serialize.triple_to_dict(transform.nivat_decompose(fixtures.first_letter_rates()))
    letter = data["gamma"][0]
    data["g"][letter] = ["1/0", "1"]
    with pytest.raises(ParseError, match=rf"g1\({letter}\)"):
        serialize.triple_from_dict(data)


def test_triple_round_trip_with_automaton_language():
    triple = transform.nivat_decompose(fixtures.first_letter_rates())
    data = serialize.triple_to_dict(triple)
    back = serialize.triple_from_dict(data)
    assert serialize.triple_to_dict(back) == data
    assert back.language_class == triple.language_class
    assert back.gamma == triple.gamma


def test_triple_round_trip_with_sentence_language():
    formula = wrdl.parse_wrdl("B(ex x. P[a](x))", SUM0)
    canonical = wrdl.canonicalize(formula, SUM0)
    triple = wrdl.sentence_to_nivat(canonical, ("a", "b"), SUM0)
    assert triple.language_class == "sentence"
    data = serialize.triple_to_dict(triple)
    assert isinstance(data["language"], str)
    back = serialize.triple_from_dict(data)
    assert serialize.triple_to_dict(back) == data


def test_triple_rejects_bad_rate_weight_pair():
    data = serialize.triple_to_dict(
        transform.nivat_decompose(fixtures.first_letter_rates()))
    first = data["gamma"][0]
    data["g"][first] = ["1"]
    with pytest.raises(ParseError, match="rate, weight"):
        serialize.triple_from_dict(data)


@pytest.mark.parametrize("field, value, shape", [
    ("gamma", "ab", "a list"), ("gamma", 5, "a list"),
    ("h", [["first_a", "a"]], "an object"), ("g", [["1", "0"]], "an object"),
    ("g", "x", "an object"),
])
def test_triple_fields_must_have_their_shape(field, value, shape):
    data = serialize.triple_to_dict(transform.nivat_decompose(fixtures.first_letter_rates()))
    data[field] = value
    with pytest.raises(ParseError, match=f"triple {field} must be {shape}, got"):
        serialize.triple_from_dict(data)


def test_missing_triple_fields_listed_together():
    with pytest.raises(ParseError) as err:
        serialize.triple_from_dict({"gamma": []})
    message = str(err.value)
    for field in ("h", "g", "language", "class"):
        assert field in message


# ---------------------------------------------------------------------------
# Assignments and JSON shape


def test_assignment_from_dict():
    sigma = serialize.assignment_from_dict(
        {"fo": {"x": 1}, "so": {"X": [1, 2]}})
    assert sigma.fo == {"x": 1}
    assert sigma.so == {"X": frozenset({1, 2})}


def test_assignment_rejects_non_integer_position():
    with pytest.raises(ParseError, match="integer"):
        serialize.assignment_from_dict({"fo": {"x": "one"}})
    with pytest.raises(ParseError, match="list"):
        serialize.assignment_from_dict({"so": {"X": 3}})


@pytest.mark.parametrize("position", [True, 1.7, 2.0, "abc", "1", None])
def test_assignment_positions_must_be_integers(position):
    with pytest.raises(ParseError, match="'x'"):
        serialize.assignment_from_dict({"fo": {"x": position}})
    with pytest.raises(ParseError, match="'X'"):
        serialize.assignment_from_dict({"so": {"X": [1, position]}})


@pytest.mark.parametrize("data", [[1], {"fo": [1]}, {"so": "X"}])
def test_assignment_maps_must_be_objects(data):
    with pytest.raises(ParseError, match="'fo' and 'so' maps"):
        serialize.assignment_from_dict(data)


def test_dump_json_is_compact():
    assert serialize.dump_json({"a": [1, 2], "b": "x"}) == '{"a":[1,2],"b":"x"}'
