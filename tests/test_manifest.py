from fractions import Fraction

from hypothesis import HealthCheck, example, given, settings, strategies as st

from algrec.manifest import write_csv
from oracles import csv_module_write

#: Text fields, with the characters that force quoting made common.
TEXT = st.text(st.sampled_from(list('ab ,"\r\n\t#=')) | st.characters(codec="utf-8"),
               max_size=12)
FIELDS = st.one_of(st.none(), st.integers(), st.floats(), st.fractions(),
                   st.booleans(), TEXT)
ROWS = st.lists(st.lists(FIELDS, max_size=5)
                | st.sampled_from([[], [""], [None], ["", ""], [None, ""]]),
                max_size=8)
META = st.dictionaries(TEXT, FIELDS, max_size=3)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(META, st.lists(TEXT, max_size=4), ROWS)
@example({}, ["step", "position"], [[1, "x1 x2"], [2, None]])
@example({"config": "abc", "p": Fraction(5, 41)}, ["s,t", 'say "hi"'],
         [[""], [None], [], ["a\r\nb", 1.5, True, Fraction(-1, 3)]])
def test_write_csv_matches_csv_module(tmp_path, meta, header, rows):
    write_csv(tmp_path / "ours.csv", meta, header, rows)
    csv_module_write(tmp_path / "ref.csv", meta, header, rows)
    assert (tmp_path / "ours.csv").read_bytes() == \
        (tmp_path / "ref.csv").read_bytes()
