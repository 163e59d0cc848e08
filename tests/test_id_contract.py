"""The element ids and exponent forms of the table-only families, as the
command line reads and prints them.

A spec may name an element of ``gpef`` and ``gpef_alpha`` groups by its id or
by the exponents of its normal form; both must name the same element, and
``etm realize --family nilpotent-chiral`` prints ids.  These tests pin both
forms, so a change of how the families are built cannot renumber them.
"""

import json

import pytest

from etmaps import build, cli

NILPOTENT_E4 = ('{"class": "2Pex", "group": {"e": 4, "family": "gpef_alpha"}, '
                '"images": {"X": 32, "Y": 1}, "label": "2Pex", "ops": ""}\n')


def test_nilpotent_chiral_realization_prints_the_same_bytes(capsys):
    assert cli.main(["realize", "--family", "nilpotent-chiral", "--e", "4"]) == 0
    assert capsys.readouterr().out == NILPOTENT_E4


# (group, an element's exponents, the same element's id); g^i h^j is
# i*n + j and g^i h^j alpha^eps is (i*n + j)*2 + eps, with n = p^e or 2^e
SAME_ELEMENT = [
    ({"family": "gpef", "p": 3, "e": 2, "f": 1}, [1, 2], 11),
    ({"family": "gpef", "p": 3, "e": 2, "f": 1}, [-1, 10], 73),
    ({"family": "gpef", "p": 2, "e": 4, "f": 2}, [0, 1], 1),
    ({"family": "gpef_alpha", "e": 3}, [1, 0, 0], 16),
    ({"family": "gpef_alpha", "e": 3}, [0, 0, 1], 1),
    ({"family": "gpef_alpha", "e": 3}, [2, 3, 1], 39),
    ({"family": "gpef_alpha", "e": 4}, [1, 0, 0], 32),
]


@pytest.mark.parametrize("group,exponents,eid", SAME_ELEMENT)
def test_exponents_and_id_name_one_element(group, exponents, eid):
    by_exponents = build.spec_from_json(
        {"class": "5", "group": group, "images": {"S": exponents, "S'": eid}})
    assert by_exponents.images["S"] == by_exponents.images["S'"] == eid
    assert by_exponents.group.to_json() == group
    assert json.loads(json.dumps(by_exponents.to_json()))["images"] == {"S": eid, "S'": eid}
