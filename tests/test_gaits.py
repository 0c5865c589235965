import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from purcell.errors import ValidationError
from purcell.gaits import (ControlSchedule, ControlSegment, GaitSpec,
                           commutator_schedule, format_schedule, parse_schedule,
                           reverse_schedule, shape_excursion, synthesize)

FINITE = st.floats(allow_nan=False, allow_infinity=False)


def schedules(amplitudes):
    """Up to 8 segments of at most 1 s each."""
    segment = st.builds(ControlSegment, st.sampled_from((1, 2)), amplitudes,
                        st.floats(0.0, 1.0))
    return st.lists(segment, max_size=8).map(lambda segs: ControlSchedule(tuple(segs)))


class TestCommutatorSchedule:
    def test_basic_square(self):
        s = commutator_schedule(tau=1.0)
        assert [(seg.channel, seg.amplitude, seg.duration) for seg in s.segments] == [
            (1, 1.0, 1.0), (2, 1.0, 1.0), (1, -1.0, 1.0), (2, -1.0, 1.0)]

    def test_tau_sets_leg_duration(self):
        s = commutator_schedule(tau=4.0)
        assert all(seg.duration == 2.0 for seg in s.segments)
        assert len(s) == 4

    def test_variant_rotation(self):
        s = commutator_schedule(tau=1.0, variant=2)
        assert [(seg.channel, seg.amplitude) for seg in s.segments] == [
            (1, -1.0), (2, -1.0), (1, 1.0), (2, 1.0)]

    def test_scale_multiplies_the_g1_rates(self):
        s = commutator_schedule(tau=1.0, scale_a=-0.5)
        assert [(seg.channel, seg.amplitude) for seg in s.segments] == [
            (1, -0.5), (2, 1.0), (1, 0.5), (2, -1.0)]

    def test_rejects_bad_args(self):
        with pytest.raises(ValidationError):
            commutator_schedule(tau=0.0)
        with pytest.raises(ValidationError):
            commutator_schedule(tau=1.0, variant=4)


class TestSynthesize:
    def test_alpha_only_is_one_square(self):
        s = synthesize(GaitSpec(1.0, 0.0, 0.0, t=1.0, n=1))
        assert len(s) == 4
        assert s.total_duration == pytest.approx(4.0)

    @pytest.mark.parametrize("nesting", ["derived", "literal"])
    def test_full_spec_segment_count_n1(self, nesting):
        s = synthesize(GaitSpec(1.0, 1.0, 1.0, t=1.0, n=1, nesting=nesting))
        assert len(s) == 24  # 4 (alpha) + 10 (beta) + 10 (gamma)

    def test_segment_counts_at_n2(self):
        derived = synthesize(GaitSpec(1.0, 1.0, 1.0, t=1.0, n=2, nesting="derived"))
        assert len(derived) == 2 * (4 + 18 + 18)
        literal = synthesize(GaitSpec(1.0, 1.0, 1.0, t=1.0, n=2, nesting="literal"))
        assert len(literal) == 4 + 2 * 18 + 2 * 18

    def test_zero_spec_is_empty(self):
        s = synthesize(GaitSpec(0.0, 0.0, 0.0))
        assert len(s) == 0
        assert s.total_duration == 0.0

    def test_nesting_durations(self):
        t, n = 0.81, 3
        derived = synthesize(GaitSpec(0.0, 1.0, 0.0, t=t, n=n, nesting="derived"))
        mids = [seg for seg in derived.segments if abs(seg.amplitude) == 1.0 and seg.channel == 1]
        assert mids[0].duration == pytest.approx(math.sqrt(t / n))
        inner = [seg for seg in derived.segments if seg.duration != mids[0].duration]
        assert inner[0].duration == pytest.approx(math.sqrt(math.sqrt(t / n) / n))
        literal = synthesize(GaitSpec(0.0, 1.0, 0.0, t=t, n=n, nesting="literal"))
        mids_l = [seg for seg in literal.segments if abs(seg.amplitude) == 1.0 and seg.channel == 1]
        assert mids_l[0].duration == pytest.approx(math.sqrt(t) / n)
        inner_l = [seg for seg in literal.segments if seg.duration != mids_l[0].duration]
        assert inner_l[0].duration == pytest.approx(t ** 0.25 / n)

    def test_closing_squares(self):
        # derived closes each block with the exact inverse of its inner square,
        # literal with that square's sign-mirror
        for nesting, close in (("derived", reverse_schedule),
                               ("literal", lambda sq: ControlSchedule(tuple(
                                   s._replace(amplitude=-s.amplitude) for s in sq.segments)))):
            s = synthesize(GaitSpec(0.0, 1.0, 0.0, t=1.0, n=1, nesting=nesting))
            inner, closing = ControlSchedule(s.segments[1:5]), ControlSchedule(s.segments[6:])
            assert inner == commutator_schedule(s.segments[1].duration ** 2)
            assert closing == close(inner)

    def test_block_order_at_n3(self):
        # literal runs the gamma block three times, then the beta block three
        # times, then one alpha square; derived runs three rounds of all three
        for nesting in ("literal", "derived"):
            def alone(alpha, beta, gamma):
                return synthesize(GaitSpec(alpha, beta, gamma, t=0.8, n=3,
                                           nesting=nesting)).segments
            gammas, betas, alphas = alone(0.0, 0.0, -1.3), alone(0.0, 0.7, 0.0), alone(2.5, 0.0, 0.0)
            g, b = gammas[:26], betas[:26]   # middle, 3 inner squares, middle, 3 closing
            a = alphas[:4]
            assert (g[0].channel, g[0].amplitude, b[0].channel, b[0].amplitude) == (2, -1.3, 1, 0.7)
            assert gammas == g * 3 and betas == b * 3
            assert a == commutator_schedule(0.8 / 3, scale_a=2.5).segments
            full = alone(2.5, 0.7, -1.3)
            if nesting == "literal":
                assert alphas == a
                assert full == g * 3 + b * 3 + a
            else:
                assert alphas == a * 3
                assert full == (g + b + a) * 3

    def test_channel_integrals_close(self):
        for nesting in ("derived", "literal"):
            for n in (1, 2, 3):
                s = synthesize(GaitSpec(0.4, -1.1, 0.9, t=0.7, n=n, nesting=nesting))
                assert abs(s.channel_integral(1)) < 1e-12
                assert abs(s.channel_integral(2)) < 1e-12

    def test_rejects_bad_spec(self):
        with pytest.raises(ValidationError):
            synthesize(GaitSpec(1.0, 0.0, 0.0, t=1.0, n=0))
        with pytest.raises(ValidationError):
            synthesize(GaitSpec(1.0, 0.0, 0.0, t=-1.0))
        with pytest.raises(ValidationError):
            synthesize(GaitSpec(float("nan"), 0.0, 0.0))
        with pytest.raises(ValidationError):
            synthesize(GaitSpec(1.0, 0.0, 0.0, nesting="other"))


class TestCombinators:
    def test_reverse_schedule(self):
        s = ControlSchedule((ControlSegment(1, 0.5, 1.0), ControlSegment(2, -1.0, 2.0)))
        r = reverse_schedule(s)
        assert [(seg.channel, seg.amplitude, seg.duration) for seg in r.segments] == [
            (2, 1.0, 2.0), (1, -0.5, 1.0)]

    @given(schedules(FINITE))
    def test_reverse_is_an_involution(self, s):
        assert reverse_schedule(reverse_schedule(s)) == s


class TestShapeExcursion:
    def test_empty(self):
        assert shape_excursion(ControlSchedule()) == 0.0

    def test_unit_square(self):
        assert shape_excursion(commutator_schedule(1.0)) == pytest.approx(1.0)

    def test_linear_in_amplitude(self):
        s = commutator_schedule(1.0)
        halved = ControlSchedule(tuple(ControlSegment(c, a / 2, d) for c, a, d in s.segments))
        assert shape_excursion(halved) == pytest.approx(0.5)

    def test_tracks_running_extreme(self):
        s = ControlSchedule((ControlSegment(1, 1.0, 2.0), ControlSegment(1, -1.0, 3.0)))
        assert shape_excursion(s) == pytest.approx(2.0)


class TestSerialization:
    @example(synthesize(GaitSpec(0.3, -1.0, 1.0, t=0.5, n=2)))
    @given(schedules(FINITE.filter(lambda a: a != 0.0)))   # zero amplitudes are elided
    def test_round_trip(self, s):
        assert parse_schedule(format_schedule(s, comment="round trip")) == s

    def test_comments_and_blanks(self):
        text = "# a comment\n\n1 0.5 2.0  # trailing comment\n2 -1 1\n"
        s = parse_schedule(text)
        assert len(s) == 2
        assert s.segments[0] == ControlSegment(1, 0.5, 2.0)

    def test_zero_amplitude_elided(self):
        s = parse_schedule("1 0 5.0\n2 1 1.0\n")
        assert len(s) == 1

    @pytest.mark.parametrize("text, line, bad", [
        ("1 0.5 1\n1 0 nan\n", 2, "duration"),
        ("2 0 -3\n", 1, "duration"),
        ("1 -0.0 inf\n", 1, "duration"),
        ("# nothing\n\n2 nan 1\n", 3, "amplitude"),
        ("1 0.5 -1\n", 1, "duration"),
    ])
    def test_every_line_is_checked(self, text, line, bad):
        """A zero-amplitude line is dropped only after its duration passes."""
        with pytest.raises(ValidationError, match=f"^schedule line {line}: segment {bad} must be"):
            parse_schedule(text)

    def test_malformed_lines(self):
        with pytest.raises(ValidationError):
            parse_schedule("1 0.5\n")
        with pytest.raises(ValidationError):
            parse_schedule("1 abc 1.0\n")
        with pytest.raises(ValidationError):
            parse_schedule("7 1.0 1.0\n")
