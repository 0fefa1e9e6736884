import math
import time

import numpy as np
import pytest

from qselect.errors import CampaignError, TrainerError, ValidationError
from qselect.matrix import ScoreMatrix, rank_normalize
from qselect.proxy import (
    CampaignConfig,
    CommandTrainer,
    OracleTrainer,
    ProxyConfig,
    TrainerRequest,
    flops_infer_structural,
    flops_train,
    flops_train_structural,
    oracle_loss,
    read_campaign_log,
    run_campaign,
    sample_simplex,
    sample_weights,
)
from qselect.selection import SelectionPlan, WeightVector

from conftest import SubsetOracleTrainer, uniform_weights


class TestFlops:
    def test_pretraining_13b_30b_tokens(self):
        # 6 * 1.3e9 * 30e9 = 23.40e19
        assert flops_train(1.3e9, 30e9) / 1e19 == pytest.approx(23.40, abs=1e-9)

    def test_pretraining_33b_100b_tokens(self):
        assert flops_train(3.3e9, 100e9) / 1e19 == pytest.approx(198.00, abs=1e-9)

    def test_structural_forms(self):
        assert flops_train_structural(2, 3, 5, 7, 11) == 6 * 2 * 9 * 5 * 7 * 11
        assert flops_infer_structural(2, 3, 5, 7) == 2 * 2 * 9 * 5 * 7

    def test_zero_documents(self):
        assert flops_infer_structural(12, 768, 1024, 0) == 0.0

    def test_linear_in_each_argument(self):
        base = flops_train(1e9, 1e9)
        assert flops_train(3e9, 1e9) == pytest.approx(3 * base)
        assert flops_train(1e9, 5e9) == pytest.approx(5 * base)


class TestProxyConfig:
    def test_defaults_match_18m_proxy(self):
        cfg = ProxyConfig()
        assert (cfg.hidden_dim, cfg.layers, cfg.heads, cfg.kv_heads) == (256, 2, 4, 4)
        assert cfg.token_budget == 500_000_000

    def test_positivity(self):
        with pytest.raises(ValidationError):
            ProxyConfig(layers=0)


class TestSampleWeights:
    def test_degenerate_simplex(self):
        (draws,) = sample_simplex(1, 5, seed=0)
        assert np.all(draws == 1.0)

    def test_simplex_membership(self):
        (draws,) = sample_simplex(6, 2000, seed=1)
        assert (draws >= 0).all()
        assert np.allclose(draws.sum(axis=1), 1.0, atol=1e-9)

    def test_flat_dirichlet_mean(self):
        (draws,) = sample_simplex(5, 10_000, seed=2)
        assert np.allclose(draws.mean(axis=0), 0.2, atol=0.01)

    def test_deterministic_per_seed(self):
        (a,) = sample_simplex(4, 10, seed=3)
        (b,) = sample_simplex(4, 10, seed=3)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("concentration", [1.0, 0.5, 0.05])
    def test_blocks_are_the_bits_of_one_draw(self, concentration):
        # The sweep draws its candidates a block at a time; a numpy whose
        # Dirichlet stream depended on the block size would change them.
        (whole,) = sample_simplex(16, 20_001, 9, concentration)
        blocks = list(sample_simplex(16, 20_001, 9, concentration, block=8192))
        assert [len(b) for b in blocks] == [8192, 8192, 3617]
        assert np.vstack(blocks).tobytes() == whole.tobytes()
        rng = np.random.default_rng(9)
        assert whole.tobytes() == rng.dirichlet(np.full(16, concentration), 20_001).tobytes()

    def test_named_wrapper(self):
        ws = sample_weights(["a", "b", "c"], 4, seed=5)
        assert len(ws) == 4
        assert all(isinstance(w, WeightVector) for w in ws)
        assert ws[0].names == ("a", "b", "c")


class TestOracleLoss:
    def w(self, values):
        return WeightVector(("a", "b", "c"), np.asarray(values, dtype=float))

    def test_minimum_at_w_star(self):
        oracle = OracleTrainer(w_star=self.w([0.5, 0.3, 0.2]), base=1.5, sigma=0.0)
        assert oracle_loss(self.w([0.5, 0.3, 0.2]), oracle) == 1.5

    def test_increases_along_rays(self):
        w_star = self.w([0.6, 0.3, 0.1])
        oracle = OracleTrainer(w_star=w_star, base=1.0, sigma=0.0)
        other = np.array([0.1, 0.2, 0.7])
        losses = []
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            point = (1 - t) * w_star.values + t * other
            losses.append(oracle_loss(self.w(point), oracle))
        assert all(b > a for a, b in zip(losses, losses[1:]))

    def test_noise_deterministic_per_weights(self):
        oracle = OracleTrainer(w_star=self.w([0.4, 0.4, 0.2]), sigma=0.1, seed=5)
        w = self.w([0.2, 0.3, 0.5])
        assert oracle_loss(w, oracle) == oracle_loss(w, oracle)
        w2 = self.w([0.3, 0.2, 0.5])
        assert oracle_loss(w, oracle) != oracle_loss(w2, oracle)


def single_domain_fixture(n_docs=40, seed=0):
    rng = np.random.default_rng(seed)
    ids = [f"d{i:03d}" for i in range(n_docs)]
    tokens = [int(rng.integers(5, 30)) for _ in range(n_docs)]
    raw = rng.normal(size=(n_docs, 3))
    matrix = rank_normalize(ScoreMatrix(["a", "b", "c"], ids, ["C4"] * n_docs, tokens, raw))
    plan = SelectionPlan(100, {"C4": 1.0})
    return matrix, plan


class TestRunCampaign:
    def test_smoke_with_oracle(self, tmp_path):
        matrix, plan = single_domain_fixture()
        trainer = OracleTrainer(uniform_weights(["a", "b", "c"]), base=2.0, sigma=0.0)
        records = run_campaign(
            matrix, plan, CampaignConfig(n=4, trainer=trainer), seed=1, out_dir=tmp_path
        )
        assert len(records) == 4
        assert all(r.status == "ok" and math.isfinite(r.loss) for r in records)
        assert (tmp_path / "manifests" / "exp-0000.txt").exists()
        logged = read_campaign_log(tmp_path / "campaign.jsonl")
        assert [r.experiment_id for r in logged] == [f"exp-{i:04d}" for i in range(4)]

    def test_resume_runs_only_missing(self, tmp_path):
        matrix, plan = single_domain_fixture()
        calls = []

        def trainer(request: TrainerRequest) -> float:
            calls.append(request.experiment_id)
            if len(calls) == 3:
                raise KeyboardInterrupt  # simulate an interrupt mid-campaign
            return 1.0

        with pytest.raises(KeyboardInterrupt):
            run_campaign(matrix, plan, CampaignConfig(n=4, trainer=trainer), seed=1, out_dir=tmp_path)
        assert len(read_campaign_log(tmp_path / "campaign.jsonl")) == 2

        calls.clear()
        resumed = CampaignConfig(n=4, trainer=lambda req: (calls.append(req.experiment_id), 1.0)[1])
        records = run_campaign(matrix, plan, resumed, seed=1, out_dir=tmp_path)
        assert len(calls) == 2  # exactly the two missing experiments
        assert len(records) == 4

    def test_resume_reproduces_same_weights(self, tmp_path):
        matrix, plan = single_domain_fixture()
        trainer = OracleTrainer(uniform_weights(["a", "b", "c"]), base=2.0, sigma=0.0)
        four, two = CampaignConfig(n=4, trainer=trainer), CampaignConfig(n=2, trainer=trainer)
        full = run_campaign(matrix, plan, four, seed=9, out_dir=tmp_path / "one")
        (tmp_path / "two").mkdir()
        partial = run_campaign(matrix, plan, two, seed=9, out_dir=tmp_path / "two")
        resumed = run_campaign(matrix, plan, four, seed=9, out_dir=tmp_path / "two")
        assert [r.weights for r in resumed] == [r.weights for r in full]
        assert [r.loss for r in resumed] == [r.loss for r in full]

    def test_failures_recorded_and_abort_threshold(self, tmp_path):
        matrix, plan = single_domain_fixture()

        def flaky(request: TrainerRequest) -> float:
            raise TrainerError("gpu fell over")

        with pytest.raises(CampaignError, match="failures"):
            run_campaign(matrix, plan, CampaignConfig(n=10, trainer=flaky), seed=1, out_dir=tmp_path)
        log = read_campaign_log(tmp_path / "campaign.jsonl")
        assert all(r.status == "failed" for r in log)
        assert 0 < len(log) <= 3  # aborts once failures exceed 20% of 10

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_exception_cancels_queued_experiments(self, tmp_path, threads, error):
        matrix, plan = single_domain_fixture()
        calls = []

        def trainer(request: TrainerRequest) -> float:
            calls.append(request.experiment_id)
            if request.experiment_id == "exp-0000":
                raise error("trainer crashed")
            time.sleep(0.05)
            return 1.0

        with pytest.raises(error):
            campaign = CampaignConfig(n=40, trainer=trainer, threads=threads)
            run_campaign(matrix, plan, campaign, seed=1, out_dir=tmp_path)
        assert len(calls) <= 2 * threads
        assert read_campaign_log(tmp_path / "campaign.jsonl") == []

    def test_single_failure_continues(self, tmp_path):
        matrix, plan = single_domain_fixture()

        def mostly_ok(request: TrainerRequest) -> float:
            if request.experiment_id == "exp-0001":
                raise TrainerError("one bad run")
            return 3.0

        campaign = CampaignConfig(n=10, trainer=mostly_ok)
        records = run_campaign(matrix, plan, campaign, seed=1, out_dir=tmp_path)
        by_status = {s: sum(1 for r in records if r.status == s) for s in ("ok", "failed")}
        assert by_status == {"ok": 9, "failed": 1}

    def test_threaded_matches_sequential(self, tmp_path):
        matrix, plan = single_domain_fixture()
        trainer = OracleTrainer(uniform_weights(["a", "b", "c"]), base=2.0, sigma=0.05, seed=3)
        seq = run_campaign(
            matrix, plan, CampaignConfig(n=8, trainer=trainer), seed=2, out_dir=tmp_path / "seq"
        )
        par = run_campaign(
            matrix, plan, CampaignConfig(n=8, trainer=trainer, threads=4), seed=2,
            out_dir=tmp_path / "par",
        )
        assert [r.loss for r in seq] == [r.loss for r in par]
        assert (tmp_path / "seq" / "campaign.jsonl").read_bytes() == (
            tmp_path / "par" / "campaign.jsonl"
        ).read_bytes()

    def test_subset_oracle_trainer_reads_manifest(self, tmp_path):
        matrix, plan = single_domain_fixture()
        quality = {doc_id: float(i) for i, doc_id in enumerate(matrix.doc_ids)}
        trainer = SubsetOracleTrainer(quality, base=5.0)
        records = run_campaign(
            matrix, plan, CampaignConfig(n=3, trainer=trainer), seed=4, out_dir=tmp_path
        )
        for record in records:
            ids = (tmp_path / record.manifest).read_text().split()
            assert record.loss == pytest.approx(
                5.0 - float(np.mean([quality[i] for i in ids]))
            )


class TestCommandTrainer:
    def test_probe_missing_executable(self):
        trainer = CommandTrainer(["definitely-not-a-real-binary-12345"])
        with pytest.raises(TrainerError, match="not found"):
            trainer.probe()

    @pytest.mark.parametrize("exe", ["tdir", "plain.sh", ""], ids=["directory", "not-executable", "empty"])
    def test_probe_refuses_what_cannot_start(self, tmp_path, monkeypatch, exe):
        # Each names an existing path subprocess cannot start: every
        # experiment would fail, so the campaign stops before its first.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "tdir").mkdir()
        (tmp_path / "plain.sh").write_text("#!/bin/sh\necho '{\"loss\": 1}'\n")
        for path in (exe, str(tmp_path / exe)):
            matrix, plan = single_domain_fixture()
            campaign = CampaignConfig(n=10, trainer=CommandTrainer([path]))
            with pytest.raises(TrainerError, match="not found"):
                run_campaign(matrix, plan, campaign, seed=1, out_dir=tmp_path / "out")
            assert not (tmp_path / "out").exists()

    def test_invokes_and_parses_loss(self, tmp_path):
        script = tmp_path / "fake_trainer.py"
        script.write_text(
            "import json, sys\n"
            "args = dict(zip(sys.argv[1::2], sys.argv[2::2]))\n"
            "ids = open(args['--manifest']).read().split()\n"
            "print(json.dumps({'loss': 1.0 + len(ids) * 0.001}))\n"
        )
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("a\nb\nc\n")
        trainer = CommandTrainer(["python3", str(script)])
        request = TrainerRequest(
            "exp-0000",
            uniform_weights(["a", "b"]),
            manifest,
            ProxyConfig(),
            valset="val",
        )
        assert trainer(request) == pytest.approx(1.003)

    def test_nonzero_exit_raises(self, tmp_path):
        script = tmp_path / "boom.py"
        script.write_text("import sys; sys.exit(3)\n")
        trainer = CommandTrainer(["python3", str(script)])
        request = TrainerRequest(
            "exp-0000",
            uniform_weights(["a", "b"]),
            tmp_path / "m.txt",
            ProxyConfig(),
            "",
        )
        (tmp_path / "m.txt").write_text("")
        with pytest.raises(TrainerError, match="exited 3"):
            trainer(request)

    @pytest.mark.parametrize(
        "loss", ["true", '"1.5"', "null", "NaN", "1e400", "1" + "0" * 400, "[1.0]"]
    )
    def test_loss_that_is_not_a_finite_json_number_fails_the_record(self, tmp_path, loss):
        # The bad loss comes from the second experiment only: that record fails
        # and the campaign goes on.
        script = tmp_path / "trainer.py"
        script.write_text(
            "import sys\n"
            "args = dict(zip(sys.argv[1::2], sys.argv[2::2]))\n"
            f"bad = {loss!r}\n"
            "print('{\"loss\": %s}' % (bad if 'exp-0001' in args['--manifest'] else '2'))\n"
        )
        matrix, plan = single_domain_fixture()
        campaign = CampaignConfig(n=5, trainer=CommandTrainer(["python3", str(script)]))
        records = run_campaign(matrix, plan, campaign, seed=1, out_dir=tmp_path)
        assert [r.status for r in records] == ["ok", "failed", "ok", "ok", "ok"]
        assert [r.loss for r in records] == [2.0, None, 2.0, 2.0, 2.0]
        assert "is not a finite JSON number" in records[1].metadata["error"]

    @pytest.mark.parametrize(
        "stream, code, message",
        [("stdout", 0, "printed no parsable loss: 'utf-8' codec can't decode byte 0xff"),
         ("stderr", 3, "exited 3: \ufffdbroken")],
        ids=["stdout-exit-0", "stderr-exit-3"],
    )
    def test_output_that_is_not_utf8_fails_the_record(self, tmp_path, stream, code, message):
        # The second experiment's trainer writes a byte that is not UTF-8.
        script = tmp_path / "trainer.py"
        script.write_text(
            "import sys\n"
            "args = dict(zip(sys.argv[1::2], sys.argv[2::2]))\n"
            "if 'exp-0001' not in args['--manifest']:\n"
            "    print('{\"loss\": 2}')\n"
            "    sys.exit(0)\n"
            f"sys.{stream}.buffer.write(b'\\xffbroken\\n{{\"loss\": 1.0}}\\n')\n"
            f"sys.exit({code})\n"
        )
        matrix, plan = single_domain_fixture()
        campaign = CampaignConfig(n=5, trainer=CommandTrainer(["python3", str(script)]))
        records = run_campaign(matrix, plan, campaign, seed=1, out_dir=tmp_path)
        assert [r.status for r in records] == ["ok", "failed", "ok", "ok", "ok"]
        assert message in records[1].metadata["error"]

    def test_garbage_output_raises(self, tmp_path):
        script = tmp_path / "noise.py"
        script.write_text("print('not json at all')\n")
        trainer = CommandTrainer(["python3", str(script)])
        request = TrainerRequest(
            "exp-0000",
            uniform_weights(["a", "b"]),
            tmp_path / "m.txt",
            ProxyConfig(),
            "",
        )
        (tmp_path / "m.txt").write_text("")
        with pytest.raises(TrainerError, match="loss"):
            trainer(request)
