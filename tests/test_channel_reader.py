"""The scenario reader's refusal of each malformed channel field.

scenario._channel reads a channel object's numbers and matrices, and
SDIChannelSpec checks what they hold.  Each case puts one value of VALUES
(None: the field left out) into a valid channel of each kind.  Where the
value is a fault under that kind, the refusal is pinned byte for byte in
REFUSALS: every message is the one the reader gave while channels held the
JSON rules (SDIChannelSpec.from_json).  Elsewhere the channel parses.

Two faults: the reader's rules for p, prep and povm run before the spec
checks d, M and N, so a malformed p, prep or povm is reported ahead of a
non-integer d, M or N, which from_json reported first.  Every other pair
keeps its order.
"""

import pytest

from symdist.channels import SDIChannelSpec
from symdist.scenario import SchemaError, scenario_from_dict


def diag(*xs):
    return [[[x if i == j else 0.0, 0.0] for j in range(len(xs))] for i, x in enumerate(xs)]


E0, E1 = diag(1.0, 0.0), diag(0.0, 1.0)
ZEROS = [[0.0, 0.0], [0.0, 0.0]]
INF, NAN, BIG = float("inf"), float("nan"), 10 ** 400  # BIG: beyond the float range
BASE = {
    "universal_cloner": {"kind": "universal_cloner", "d": 2, "M": 3, "N": 1},
    "fixed_prep": {"kind": "fixed_prep", "d": 2, "M": 3, "prep": [E0]},
    "noisy_cloner": {"kind": "noisy_cloner", "d": 2, "M": 3, "N": 1, "p": 0.1},
    "measure_prepare": {"kind": "measure_prepare", "d": 2, "M": 3,
                        "prep": [E0, E1], "povm": [E0, E1]},
}
CLONERS, PREPS = ("universal_cloner", "noisy_cloner"), ("fixed_prep", "measure_prepare")
ONE_OF = f"; expected one of {SDIChannelSpec.KINDS}"


def but(kind):
    return tuple(other for other in BASE if other != kind)


# the values that the reader refuses in either matrix field
UNREADABLE = {
    "string": "x", "object": {"a": 1}, "string-entry": ["x"], "empty-matrix": [[]],
    "ragged": [[[[1.0, 0.0]], ZEROS]], "numbers-not-pairs": [[[1.0, 0.0]]],
    "triple": [[[[1.0, 0.0, 0.0], [0.0, 0.0]], ZEROS]],
    "string-number": [[[["a", 0.0], [0.0, 0.0]], ZEROS]],
    "bool-number": [[[[1.0, True], [0.0, 0.0]], ZEROS]],
    "inf": [[[[INF, 0.0], [0.0, 0.0]], ZEROS]], "huge-int": [[[[BIG, 0.0], [0.0, 0.0]], ZEROS]],
}
VALUES = {
    "kind": {"name": "cloner", "int": 3, "absent": None, "list": ["fixed_prep"]},
    "d": {"float": 2.0, "bool": True, "string": "2", "absent": None, "zero": 0,
          "negative": -1, "list": [2]},
    "M": {"float": 3.0, "bool": False, "absent": None, "zero": 0, "negative": -2,
          "object": {"M": 3}},
    "N": {"float": 1.5, "bool": True, "string": "1", "zero": 0, "above-M": 4, "one": 1,
          "absent": None},
    "p": {"string": "x", "bool": True, "list": [0.1], "inf": INF, "nan": NAN,
          "huge-int": BIG, "negative": -0.1, "above-1": 1.5, "valid": 0.1, "absent": None},
    "prep": {**UNREADABLE, "1x1": [[[[1.0, 0.0]]]], "3x3": [diag(1.0, 0.0, 0.0)],
             "negative": [diag(2.0, -1.0)], "not-hermitian": [[[[0.5, 0.0], [0.5, 0.0]],
                                                             [[0.0, 0.0], [0.5, 0.0]]]],
             "complex": [[[[0.5, 0.0], [0.0, 0.5]], [[0.0, -0.5], [0.5, 0.0]]]],
             "trace-2": [diag(1.0, 1.0)], "empty": [], "one": [E0],
             "three": [E0, E1, diag(0.5, 0.5)], "absent": None},
    "povm": {**UNREADABLE, "1x1": [[[[1.0, 0.0]]], E1], "1x2": [[[[1.0, 0.0], [0.0, 0.0]]], E1],
             "3x3": [diag(1.0, 0.0, 0.0), E1], "negative": [diag(2.0, -1.0), diag(-1.0, 2.0)],
             "not-hermitian": [[[[0.5, 0.0], [0.5, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
                               [[[0.5, 0.0], [-0.5, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]],
             "not-identity": [E0, E0], "halves": [diag(0.5, 0.5), diag(0.5, 0.5)],
             "empty": [], "one": [E0], "three": [E0, E1, diag(0.5, 0.5)], "absent": None},
}

# the refusal after "scenario.channel: " of each (field, value): one message
# for every kind, or one for each group of kinds under which it is a fault;
# "{kind}" stands for the kind's name
REFUSALS = {
    ("kind", "name"): "unknown channel kind 'cloner'" + ONE_OF,
    ("kind", "int"): "unknown channel kind 3" + ONE_OF,
    ("kind", "absent"): "unknown channel kind None" + ONE_OF,
    ("kind", "list"): "unknown channel kind ['fixed_prep']" + ONE_OF,
    ("d", "float"): "d: expected an integer, got 2.0",
    ("d", "bool"): "d: expected an integer, got True",
    ("d", "string"): "d: expected an integer, got '2'",
    ("d", "absent"): "d: expected an integer, got None",
    ("d", "zero"): "need d >= 1 and M >= 1, got d=0, M=3",
    ("d", "negative"): "need d >= 1 and M >= 1, got d=-1, M=3",
    ("d", "list"): "d: expected an integer, got [2]",
    ("M", "float"): "M: expected an integer, got 3.0",
    ("M", "bool"): "M: expected an integer, got False",
    ("M", "absent"): "M: expected an integer, got None",
    ("M", "zero"): "need d >= 1 and M >= 1, got d=2, M=0",
    ("M", "negative"): "need d >= 1 and M >= 1, got d=2, M=-2",
    ("M", "object"): "M: expected an integer, got {'M': 3}",
    ("N", "float"): "N: expected an integer, got 1.5",
    ("N", "bool"): "N: expected an integer, got True",
    ("N", "string"): "N: expected an integer, got '1'",
    ("N", "zero"): {CLONERS: "N: need 1 <= N <= M, got N=0, M=3", PREPS: "{kind} does not take N"},
    ("N", "above-M"): {
        CLONERS: "N: need 1 <= N <= M, got N=4, M=3",
        PREPS: "{kind} does not take N",
    },
    ("N", "one"): {PREPS: "{kind} does not take N"},
    ("N", "absent"): {CLONERS: "{kind} requires N"},
    ("p", "string"): "p: expected a number, got 'x'",
    ("p", "bool"): "p: expected a number, got True",
    ("p", "list"): "p: expected a number, got [0.1]",
    ("p", "inf"): "p: expected a finite number",
    ("p", "nan"): "p: expected a finite number",
    ("p", "huge-int"): "p: expected a finite number",
    ("p", "negative"): {
        but("noisy_cloner"): "{kind} does not take p",
        ("noisy_cloner",): "p: depolarizing weight must be in [0, 1], got -0.1",
    },
    ("p", "above-1"): {
        but("noisy_cloner"): "{kind} does not take p",
        ("noisy_cloner",): "p: depolarizing weight must be in [0, 1], got 1.5",
    },
    ("p", "valid"): {but("noisy_cloner"): "{kind} does not take p"},
    ("p", "absent"): {("noisy_cloner",): "{kind} requires p"},
    ("prep", "string"): "prep: expected a list of matrices",
    ("prep", "object"): "prep: expected a list of matrices",
    ("prep", "string-entry"): "prep[0]: expected a matrix of [re, im] pairs",
    ("prep", "empty-matrix"): "prep[0]: expected a matrix of [re, im] pairs",
    ("prep", "ragged"): "prep[0]: expected a matrix of [re, im] pairs",
    ("prep", "numbers-not-pairs"): "prep[0]: expected an [re, im] pair",
    ("prep", "triple"): "prep[0]: expected an [re, im] pair",
    ("prep", "string-number"): "prep[0]: expected a number, got 'a'",
    ("prep", "bool-number"): "prep[0]: expected a number, got True",
    ("prep", "inf"): "prep[0]: expected a finite number",
    ("prep", "huge-int"): "prep[0]: expected a finite number",
    ("prep", "1x1"): {
        CLONERS: "{kind} does not take prep",
        PREPS: "prep[0]: expected a 2 x 2 matrix, got shape (1, 1)",
    },
    ("prep", "3x3"): {
        CLONERS: "{kind} does not take prep",
        PREPS: "prep[0]: expected a 2 x 2 matrix, got shape (3, 3)",
    },
    ("prep", "negative"): {
        CLONERS: "{kind} does not take prep",
        PREPS: "prep[0]: prepared state has negative eigenvalue -1.000e+00",
    },
    ("prep", "not-hermitian"): {
        CLONERS: "{kind} does not take prep",
        PREPS: "prep[0]: prepared state: matrix is not Hermitian within 1e-09 "
               "(residual 5.000e-01)",
    },
    ("prep", "complex"): {
        CLONERS: "{kind} does not take prep",
        ("measure_prepare",): "povm: got 2 POVM elements but 1 prepared states",
    },
    ("prep", "trace-2"): {
        CLONERS: "{kind} does not take prep",
        PREPS: "prep[0]: prepared state has trace (2+0j), expected 1",
    },
    ("prep", "empty"): {
        CLONERS: "{kind} does not take prep",
        ("fixed_prep",): "{kind} requires exactly one prep matrix",
        ("measure_prepare",): "povm: got 2 POVM elements but 0 prepared states",
    },
    ("prep", "one"): {
        CLONERS: "{kind} does not take prep",
        ("measure_prepare",): "povm: got 2 POVM elements but 1 prepared states",
    },
    ("prep", "three"): {
        CLONERS: "{kind} does not take prep",
        ("fixed_prep",): "{kind} requires exactly one prep matrix",
        ("measure_prepare",): "povm: got 2 POVM elements but 3 prepared states",
    },
    ("prep", "absent"): {PREPS: "{kind} requires prep"},
    ("povm", "string"): "povm: expected a list of matrices",
    ("povm", "object"): "povm: expected a list of matrices",
    ("povm", "string-entry"): "povm[0]: expected a matrix of [re, im] pairs",
    ("povm", "empty-matrix"): "povm[0]: expected a matrix of [re, im] pairs",
    ("povm", "ragged"): "povm[0]: expected a matrix of [re, im] pairs",
    ("povm", "numbers-not-pairs"): "povm[0]: expected an [re, im] pair",
    ("povm", "triple"): "povm[0]: expected an [re, im] pair",
    ("povm", "string-number"): "povm[0]: expected a number, got 'a'",
    ("povm", "bool-number"): "povm[0]: expected a number, got True",
    ("povm", "inf"): "povm[0]: expected a finite number",
    ("povm", "huge-int"): "povm[0]: expected a finite number",
    ("povm", "1x1"): {
        but("measure_prepare"): "{kind} does not take povm",
        ("measure_prepare",): "povm: POVM element 1 has shape (2, 2)",
    },
    ("povm", "1x2"): {
        but("measure_prepare"): "{kind} does not take povm",
        ("measure_prepare",): "povm: POVM element 0 has shape (1, 2), expected a square matrix",
    },
    ("povm", "3x3"): {
        but("measure_prepare"): "{kind} does not take povm",
        ("measure_prepare",): "povm: POVM element 1 has shape (2, 2)",
    },
    ("povm", "negative"): {
        but("measure_prepare"): "{kind} does not take povm",
        ("measure_prepare",): "povm: POVM element 0 has negative eigenvalue -1.000e+00",
    },
    ("povm", "not-hermitian"): {
        but("measure_prepare"): "{kind} does not take povm",
        ("measure_prepare",): "povm: matrix is not Hermitian within 1e-09 (residual 5.000e-01)",
    },
    ("povm", "not-identity"): {
        but("measure_prepare"): "{kind} does not take povm",
        ("measure_prepare",): "povm: POVM elements do not sum to the identity within 1e-9",
    },
    ("povm", "halves"): {but("measure_prepare"): "{kind} does not take povm"},
    ("povm", "empty"): {
        but("measure_prepare"): "{kind} does not take povm",
        ("measure_prepare",): "povm: got 0 POVM elements but 2 prepared states",
    },
    ("povm", "one"): {
        but("measure_prepare"): "{kind} does not take povm",
        ("measure_prepare",): "povm: got 1 POVM elements but 2 prepared states",
    },
    ("povm", "three"): {
        but("measure_prepare"): "{kind} does not take povm",
        ("measure_prepare",): "povm: got 3 POVM elements but 2 prepared states",
    },
    ("povm", "absent"): {("measure_prepare",): "{kind} requires povm"},
}


def _channel(kind: str, faults: dict) -> dict:
    """The base channel of `kind` with the VALUES named by faults, field: id."""
    channel = {**BASE[kind], **{field: VALUES[field][ident] for field, ident in faults.items()}}
    return {name: x for name, x in channel.items() if x is not None}


def _message(channel: dict) -> str | None:
    data = {"schema": 1, "channel": channel,
            "input": {"type": "pure", "coeffs": [[1.0, 0.0], [0.0, 0.0]]},
            "k": [1], "checks": ["lemma1"]}
    try:
        scenario_from_dict(data)
    except SchemaError as exc:
        return str(exc)
    return None


def _expected(kind: str, field: str, ident: str) -> str | None:
    refusal = REFUSALS.get((field, ident))
    if isinstance(refusal, dict):
        refusal = next((msg for kinds, msg in refusal.items() if kind in kinds), None)
    return None if refusal is None else "scenario.channel: " + refusal.replace("{kind}", kind)


CASES = [(kind, field, ident) for kind in BASE for field, values in VALUES.items()
         for ident in values]


@pytest.mark.parametrize("kind,field,ident", CASES,
                         ids=[f"{kind}-{field}-{ident}" for kind, field, ident in CASES])
def test_each_malformed_field_is_refused_in_its_words(kind, field, ident):
    assert _message(_channel(kind, {field: ident})) == _expected(kind, field, ident)


# two faults in one channel: the first four moved when the integer rule
# went into the spec, the rest report what from_json reported
PAIRS = [
    ("noisy_cloner", {"d": "float", "p": "string"}, "p: expected a number, got 'x'"),
    ("fixed_prep", {"M": "absent", "prep": "string-number"},
     "prep[0]: expected a number, got 'a'"),
    ("measure_prepare", {"N": "bool", "povm": "inf"}, "povm[0]: expected a finite number"),
    ("universal_cloner", {"N": "string", "p": "huge-int"}, "p: expected a finite number"),
    ("fixed_prep", {"d": "float", "prep": "string"}, "prep: expected a list of matrices"),
    ("universal_cloner", {"kind": "name", "d": "float"}, "d: expected an integer, got 2.0"),
    ("noisy_cloner", {"d": "zero", "p": "string"}, "p: expected a number, got 'x'"),
    ("fixed_prep", {"N": "float", "prep": "1x1"}, "N: expected an integer, got 1.5"),
    ("measure_prepare", {"prep": "bool-number", "povm": "object"},
     "povm: expected a list of matrices"),
    ("measure_prepare", {"kind": "int", "povm": "not-identity"},
     "unknown channel kind 3" + ONE_OF),
]


@pytest.mark.parametrize("kind,faults,message", PAIRS,
                         ids=["-".join([kind, *map("=".join, faults.items())])
                              for kind, faults, _ in PAIRS])
def test_two_faults_report_the_first_checked(kind, faults, message):
    assert _message(_channel(kind, faults)) == "scenario.channel: " + message
