"""The seeded lifetime campaign: pooled, serial and resumed runs agree."""

import json

from repro.sim.campaign import main, run_campaign

PARAMS = dict(num_blocks=256, mean_endurance=300.0)


def canonical(payload):
    return json.dumps(payload, sort_keys=True)


class TestCampaignEquivalence:
    def test_pooled_matches_serial(self):
        serial = run_campaign(6, seed=2, jobs=1, **PARAMS)
        pooled = run_campaign(6, seed=2, jobs=2, **PARAMS)
        assert canonical(pooled) == canonical(serial)

    def test_check_flag_passes(self):
        code = main(["--seeds", "3", "--jobs", "2", "--blocks", "256",
                     "--mean", "300", "--check", "--quiet"])
        assert code == 0

    def test_resume_extends_to_scratch_payload(self, tmp_path):
        resume = tmp_path / "campaign.json"
        first = run_campaign(4, seed=2, resume=resume, **PARAMS)
        # A second, larger run reuses the four cached cells and runs only
        # the new ones, yet matches the from-scratch payload.
        second = run_campaign(6, seed=2, resume=resume, **PARAMS)
        scratch = run_campaign(6, seed=2, **PARAMS)
        assert canonical(second) == canonical(scratch)
        assert first["cells"].keys() <= second["cells"].keys()
