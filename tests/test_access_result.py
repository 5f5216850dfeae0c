"""The AccessResult contract: an immutable record with fixed fields."""

import pytest

from repro.mc import AccessResult

FIELDS = ("vblock", "pa", "da", "pcm_accesses", "tag", "redirected",
          "faults_handled", "victimized")


class TestAccessResult:
    def test_field_names_and_order(self):
        assert AccessResult._fields == FIELDS

    def test_defaults(self):
        result = AccessResult(1, 2, 3, 4)
        assert result.tag is None
        assert result.redirected is False
        assert result.faults_handled == 0
        assert result.victimized is False

    def test_positional_and_keyword_construction_agree(self):
        positional = AccessResult(7, 8, 9, 2, 5, True, 1, True)
        keyword = AccessResult(vblock=7, pa=8, da=9, pcm_accesses=2, tag=5,
                               redirected=True, faults_handled=1,
                               victimized=True)
        assert positional == keyword
        assert [getattr(keyword, name) for name in FIELDS] \
            == [7, 8, 9, 2, 5, True, 1, True]

    @pytest.mark.parametrize("name", FIELDS)
    def test_fields_cannot_be_assigned(self, name):
        result = AccessResult(1, 2, 3, 4)
        with pytest.raises(AttributeError):
            setattr(result, name, 0)

    def test_missing_required_field_rejected(self):
        with pytest.raises(TypeError):
            AccessResult(1, 2, 3)  # type: ignore[call-arg]
