"""End-to-end command-line checks, run in process through cli.main."""

import json

import numpy as np
import pytest

from laplace_match import bridges, cli, distributions, gp, matrixops, transforms


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestBridgeCommand:
    def test_gamma_log_forward(self, capsys):
        rc, out, _ = run(
            capsys, "bridge", "gamma", "log", "forward", "--alpha", "4", "--lambda", "2"
        )
        assert rc == 0
        rec = json.loads(out)
        assert rec["mu"] == pytest.approx(np.log(2.0), abs=1e-9)
        assert rec["var"] == pytest.approx(0.25, abs=1e-12)

    def test_exponential_forward_both_bases(self, capsys):
        rc, out, _ = run(capsys, "bridge", "exponential", "log", "forward", "--lambda", "1")
        assert rc == 0 and json.loads(out)["mu"] == pytest.approx(0.0)
        rc, out, _ = run(capsys, "bridge", "exponential", "sqrt", "forward", "--lambda", "2")
        assert rc == 0
        rec = json.loads(out)
        assert rec["mu"] == pytest.approx(0.5) and rec["var"] == pytest.approx(0.125)

    def test_dirichlet_forward_emits_gaussian_record(self, capsys):
        rc, out, _ = run(
            capsys, "bridge", "dirichlet", "softmax", "forward", "--alpha", "1,1,1"
        )
        assert rc == 0
        rec = json.loads(out)["gaussian"]
        # the centered K-vector and its singular (K, K) covariance
        assert set(rec) == {"mean", "cov"} and np.shape(rec["cov"]) == (3, 3)
        assert np.allclose(rec["mean"], 0.0)
        np.testing.assert_allclose(np.sum(rec["cov"], axis=1), 0.0, atol=1e-15)

    def test_matrix_forward_emits_the_vech_record(self, capsys):
        rc, out, _ = run(
            capsys, "bridge", "wishart", "logm", "forward", "--dof", "5", "--scale", "1,0.2;0.2,2"
        )
        assert rc == 0
        rec = json.loads(out)["gaussian"]
        g = bridges.lm_forward(distributions.wishart(5.0, [[1.0, 0.2], [0.2, 2.0]]), "matrix_log")
        assert rec == {"mean": g.mean.tolist(), "cov": g.cov.tolist()}
        assert len(rec["mean"]) == 3

    def test_asymmetric_matrix_mu_is_a_usage_error(self, capsys):
        # the lower triangle was dropped without a word
        rc, out, err = run(
            capsys, "bridge", "wishart", "matrix_log", "inverse",
            "--mu", "1,0.3;-5,1", "--sigma", "0.2",
        )
        assert rc == 2 and out == "" and "symmetric" in err
        rc, _, _ = run(
            capsys, "bridge", "wishart", "matrix_log", "inverse",
            "--mu", "1,0.3;0.3,1", "--sigma", "0.2",
        )
        assert rc == 0

    @pytest.mark.parametrize(
        "family, basis, mu, sigma",
        [
            ("wishart", "matrix_log", "1,0.3;0.3,1", "0.2"),
            ("inverse_wishart", "matrix_log", "0.5,-0.1,0;-0.1,0.2,0.3;0,0.3,-0.4", "0.05"),
            ("wishart", "matrix_sqrt", "1.5,0.2;0.2,1", "0.01"),
            (
                "inverse_wishart", "matrix_sqrt", "1.5,0.2;0.2,1",
                "0.02,0.001,0;0.001,0.01,0;0,0,0.02",
            ),
            ("dirichlet", "softmax_inverse", "0.5,-0.2,-0.3", "0.2,0.3,0.25"),
            ("dirichlet", "softmax_inverse", "0.1,-0.1", "0.25,-0.25;-0.25,0.25"),
        ],
    )
    def test_inverse_params_match_the_former_conversion(self, capsys, family, basis, mu, sigma):
        # verbatim reference: the mean as unvech -> ravel -> vech of the
        # parsed matrix, a scalar sigma as the former "scaled_identity"
        # vech_cov, a simplex sigma as its diagonal or its dense matrix
        def parse(text):
            return np.array([[float(v) for v in r.split(",")] for r in text.split(";")])

        if basis == "softmax_inverse":
            mean = parse(mu)[0]
            cov = parse(sigma) if ";" in sigma else np.diag(parse(sigma)[0])
        else:
            M = parse(mu)
            p = M.shape[0]
            mean = matrixops.vech(M.ravel().reshape(p, p))
            if "," in sigma:
                cov = parse(sigma)
            else:
                data = float(sigma)
                cov = np.diag([data if i == j else 0.5 * data for i, j in matrixops.vech_pairs(p)])
        fields = bridges.inverse_arrays(family, basis, mean[None], 0.5 * (cov + cov.T)[None])
        want = distributions.from_record({"family": family, **{k: v[0] for k, v in fields.items()}})
        rc, out, err = run(capsys, "bridge", family, basis, "inverse", "--mu", mu, "--sigma", sigma)
        assert rc == 0, err
        assert json.loads(out)["params"] == json.loads(json.dumps(want.to_record()))

    def test_gamma_log_inverse(self, capsys):
        rc, out, _ = run(
            capsys, "bridge", "gamma", "log", "inverse", "--mu", "0", "--sigma", "0.25"
        )
        assert rc == 0
        params = distributions.from_record(json.loads(out)["params"])
        assert params.alpha == pytest.approx(4.0) and params.lam == pytest.approx(4.0)

    def test_inverse_wishart_logm_inverse(self, capsys):
        rc, out, _ = run(
            capsys,
            "bridge", "inverse_wishart", "logm", "inverse",
            "--mu", "0,0;0,0", "--sigma", str(2.0 / 3.0),
        )
        assert rc == 0
        params = distributions.from_record(json.loads(out)["params"])
        assert params.nu == pytest.approx(2.0, rel=1e-9)
        assert np.allclose(params.Psi, 3.0 * np.eye(2), rtol=1e-9)

    def test_missing_parameter_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "bridge", "gamma", "log", "forward", "--alpha", "4")
        assert rc == 2 and "--lambda" in err

    def test_outside_validity_region_exits_two(self, capsys):
        rc, _, err = run(
            capsys,
            "bridge", "gamma", "sqrt", "forward", "--alpha", "0.4", "--lambda", "1",
        )
        assert rc == 2 and "OutsideValidityRegion" in err

    def test_unknown_family(self, capsys):
        rc, _, err = run(capsys, "bridge", "poisson", "log", "forward", "--lambda", "1")
        assert rc == 2 and "unknown family" in err

    @pytest.mark.parametrize(
        "family, flags, params",
        [
            ("exponential", ["--lambda", "4"], {"lam": 4.0}),
            ("gamma", ["--alpha", "1", "--lambda", "4"], {"alpha": 1.0, "lam": 4.0}),
            ("inverse_gamma", ["--alpha", "3", "--lambda", "0.5"], {"alpha": 3.0, "lam": 0.5}),
            ("chi_squared", ["--k", "0.5"], {"k": 0.5}),
            ("beta", ["--alpha", "1", "--beta", "3"], {"alpha": 1.0, "beta": 3.0}),
            ("dirichlet", ["--alpha", "1,2,3"], {"alpha": [1.0, 2.0, 3.0]}),
            (
                "wishart",
                ["--dof", "6", "--scale", "0.02,0.001;0.001,0.03"],
                {"n": 6.0, "V": [[0.02, 0.001], [0.001, 0.03]]},
            ),
            (
                "inverse_wishart",
                ["--dof", "6", "--scale", "0.2,0.01;0.01,0.3"],
                {"nu": 6.0, "Psi": [[0.2, 0.01], [0.01, 0.3]]},
            ),
        ],
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_forward_output_feeds_the_inverse(self, capsys, family, flags, params):
        # each mean starts with a negative entry, which argparse must take as
        # the value of --mu rather than as an option
        basis = transforms.FAMILY_BASES[family][1]
        rc, out, _ = run(capsys, "bridge", family, basis, "forward", *flags)
        assert rc == 0
        rec = json.loads(out)

        def rows(M):
            return ";".join(",".join(repr(float(v)) for v in row) for row in np.atleast_2d(M))

        if "gaussian" in rec:
            gauss = rec["gaussian"]
            mean = np.asarray(gauss["mean"])
            if family in ("wishart", "inverse_wishart"):  # the mean is printed as its vech
                mean = matrixops.unvech(mean, int(np.sqrt(2 * mean.size)))
            mu = rows(mean)
            sigma = rows(gauss["cov"]) if isinstance(gauss["cov"], list) else repr(gauss["cov"])
        else:
            mu, sigma = repr(rec["mu"]), repr(rec["var"])
        assert mu.startswith("-")
        rc, out, err = run(capsys, "bridge", family, basis, "inverse", "--mu", mu, "--sigma", sigma)
        assert rc == 0, err
        back = json.loads(out)["params"]
        for name, value in params.items():
            np.testing.assert_allclose(back[name], value, rtol=1e-9)


class TestGenAndReaders:
    def test_binary_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "bin.csv")
        rc, out, _ = run(capsys, "gen", "binary", "--out", path, "--n", "40", "--seed", "5")
        assert rc == 0 and path in out
        data = cli.read_points(path, "binary")
        assert data.X.shape == (40, 2)
        assert set(np.unique(data.Y)) <= {0.0, 1.0}
        # generator enforces a margin of 0.25 along the first coordinate
        sign = np.where(data.Y == 1, 1.0, -1.0)
        assert np.all(sign * data.X[:, 0] >= 0.25)

    def test_counts_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "cnt.csv")
        rc, _, _ = run(capsys, "gen", "counts", "--out", path, "--n", "30", "--seed", "1")
        assert rc == 0
        data = cli.read_points(path, "counts")
        assert data.X.shape == (30, 1)
        assert np.all(data.Y >= 0) and np.all(data.Y == np.round(data.Y))
        assert np.all(np.diff(data.X[:, 0]) >= 0)

    def test_categorical_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "cat.csv")
        rc, _, _ = run(
            capsys,
            "gen", "categorical", "--out", path,
            "--timesteps", "4", "--classes", "3", "--total", "40", "--seed", "2",
        )
        assert rc == 0
        data, labels = cli.read_categorical(path)
        assert labels == [0, 1, 2]
        assert data.Y.shape == (4, 3)
        assert np.all(data.Y.sum(axis=1) == 40)

    def test_covariance_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "cov.csv")
        rc, _, _ = run(
            capsys, "gen", "covariance", "--out", path, "--timesteps", "3", "--seed", "3"
        )
        assert rc == 0
        data = cli.read_covariance(path)
        assert data.Y.shape == (3, 2, 2)
        for M in data.Y:
            assert np.allclose(M, M.T)
            assert np.linalg.eigvalsh(M)[0] > 0

    def test_gen_needs_out(self, capsys):
        rc, _, err = run(capsys, "gen", "binary")
        assert rc == 2 and "--out" in err

    @pytest.mark.parametrize(
        "args,error",
        [
            (("binary", "--n", "-5"), "InvalidParams"),
            (("counts", "--n", "-1"), "InvalidParams"),
            (("binary", "--d", "0"), "InvalidParams"),
            (("categorical", "--classes", "0"), "InvalidParams"),
            (("categorical", "--classes", "1"), "InvalidParams"),
            (("categorical", "--groups", "-1"), "InvalidParams"),
            (("categorical", "--total", "-1"), "InvalidParams"),
            (("covariance", "--p", "0"), "InvalidParams"),
            (("covariance", "--p", "-1"), "InvalidParams"),
            (("binary", "--separation", "0", "--noise", "0"), "NonConvergence"),
        ],
    )
    def test_bad_sizes_are_usage_errors(self, tmp_path, capsys, args, error):
        # each raised a ValueError, IndexError or RuntimeError traceback, and
        # --classes 1 wrote a file that `experiment categorical` rejects
        path = tmp_path / "gen.csv"
        rc, _, err = run(capsys, "gen", *args, "--out", str(path))
        assert rc == cli.EXIT_USAGE
        assert err.startswith(f"error: {error}: ")
        assert not path.exists()

    @pytest.mark.parametrize(
        "args,header",
        [
            (("binary", "--n", "0"), "x1,x2,label"),
            (("counts", "--n", "0", "--d", "3"), "x1,x2,x3,count"),
            (("categorical", "--timesteps", "0"), "t,c,class,count"),
            (("categorical", "--groups", "0"), "t,c,class,count"),
            (("covariance", "--timesteps", "0"), "t,i,j,value"),
        ],
    )
    def test_zero_sizes_write_a_header_only_file(self, tmp_path, capsys, args, header):
        path = tmp_path / "gen.csv"
        rc, _, _ = run(capsys, "gen", *args, "--out", str(path))
        assert rc == 0
        assert path.read_text() == header + "\n"


class TestDatasetErrors:
    def test_bad_label_reports_line_number(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,label\n0.0,0.0,1\n1.0,1.0,2\n")
        rc, _, err = run(
            capsys, "experiment", "binary", "--data", str(path), "--out", str(tmp_path / "r.json")
        )
        assert rc == 2 and ":3:" in err

    def test_negative_count_reports_line_number(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("x1,count\n0.0,-1\n")
        rc, _, err = run(
            capsys, "experiment", "counts", "--data", str(path), "--out", str(tmp_path / "r.json")
        )
        assert rc == 2 and ":2:" in err

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        rc, _, err = run(
            capsys, "experiment", "binary", "--data", str(path), "--out", str(tmp_path / "r.json")
        )
        assert rc == 2 and ":1:" in err

    def test_non_numeric_cell(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("x1,count\noops,3\n")
        rc, _, err = run(
            capsys, "experiment", "counts", "--data", str(path), "--out", str(tmp_path / "r.json")
        )
        assert rc == 2 and "oops" in err


class TestExperimentCommand:
    def _gen(self, capsys, tmp_path, kind, name, *extra):
        path = str(tmp_path / name)
        rc, _, _ = run(capsys, "gen", kind, "--out", path, *extra)
        assert rc == 0
        return path

    def test_binary_report(self, tmp_path, capsys):
        train = self._gen(capsys, tmp_path, "binary", "train.csv", "--n", "40", "--seed", "0")
        test = self._gen(capsys, tmp_path, "binary", "test.csv", "--n", "30", "--seed", "1")
        out = str(tmp_path / "report.json")
        rc, stdout, _ = run(
            capsys,
            "experiment", "binary", "--data", train, "--test", test,
            "--out", out, "--seed", "0", "--draws", "150",
        )
        assert rc == 0 and "report written" in stdout
        report = json.loads(open(out).read())
        assert report["metrics"]["train"]["accuracy"] == 1.0
        assert report["metrics"]["test"]["accuracy"] >= 0.9
        assert report["config"]["family"] == "beta"
        assert "total_seconds" in report["timings"]
        for split in ("train", "test"):
            stages = report["predictions"][split]["timings"]
            assert {"predict_seconds", "summary_seconds"} <= set(stages)
        # the one fitted kernel, with its resolved median-heuristic lengthscale
        kernels = [report["predictions"][split]["diagnostics"]["kernel"] for split in ("train", "test")]
        assert kernels[0] == kernels[1]
        assert kernels[0]["kernel"] == "rbf" and 0.0 < kernels[0]["lengthscale"] < np.inf
        probs = np.asarray(report["predictions"]["train"]["probabilities"])
        assert probs.shape == (40,)
        assert np.all((probs >= 0.0) & (probs <= 1.0))

    def test_nan_lengthscale_is_a_usage_error(self, tmp_path, capsys):
        # the kernel took NaN, and the run failed late in the logit inverse
        train = self._gen(capsys, tmp_path, "binary", "train.csv", "--n", "20", "--seed", "0")
        out = str(tmp_path / "report.json")
        rc, _, err = run(
            capsys,
            "experiment", "binary", "--data", train, "--out", out,
            "--kernel", "rbf", "--lengthscale", "nan",
        )
        assert rc == 2 and "InvalidParams" in err

    @pytest.mark.parametrize("version", ["v1", "v2"])
    def test_held_out_split_fits_once(self, tmp_path, capsys, monkeypatch, version):
        train = self._gen(capsys, tmp_path, "binary", "train.csv", "--n", "30", "--seed", "0")
        test = self._gen(capsys, tmp_path, "binary", "test.csv", "--n", "20", "--seed", "1")
        fit = gp.gp_fit
        fits = []

        def counting_fit(*args, **kwargs):
            fits.append(args)
            return fit(*args, **kwargs)

        monkeypatch.setattr(gp, "gp_fit", counting_fit)
        out = str(tmp_path / "report.json")
        rc, _, _ = run(
            capsys,
            "experiment", "binary", "--data", train, "--test", test, "--out", out,
            "--seed", "0", "--draws", "50", "--pipeline-version", version,
        )
        assert rc == 0 and len(fits) == 1
        timings = json.loads(open(out).read())["timings"]
        assert timings["test_predict_seconds"] >= 0.0

    def test_binary_v2_matches_v1(self, tmp_path, capsys):
        train = self._gen(capsys, tmp_path, "binary", "train.csv", "--n", "30", "--seed", "4")
        out1 = str(tmp_path / "v1.json")
        out2 = str(tmp_path / "v2.json")
        base = ["experiment", "binary", "--data", train, "--seed", "0", "--draws", "100"]
        assert cli.main(base + ["--out", out1]) == 0
        assert cli.main(base + ["--out", out2, "--pipeline-version", "v2"]) == 0
        capsys.readouterr()
        r1 = json.loads(open(out1).read())
        r2 = json.loads(open(out2).read())
        p1 = np.asarray(r1["predictions"]["train"]["probabilities"])
        p2 = np.asarray(r2["predictions"]["train"]["probabilities"])
        assert np.allclose(p1, p2, atol=1e-6)

    def test_counts_report(self, tmp_path, capsys):
        data = self._gen(capsys, tmp_path, "counts", "c.csv", "--n", "30", "--seed", "2")
        out = str(tmp_path / "report.json")
        rc, _, _ = run(
            capsys,
            "experiment", "counts", "--data", data, "--out", out,
            "--seed", "0", "--draws", "150",
            "--kernel", "rbf", "--lengthscale", "1.0", "--variance", "1.0",
        )
        assert rc == 0
        report = json.loads(open(out).read())
        metrics = report["metrics"]["train"]
        assert metrics["rmse"] >= 0 and np.isfinite(metrics["mnll"])
        assert report["predictions"]["train"]["diagnostics"]["kernel"] == {
            "kernel": "rbf", "lengthscale": 1.0, "variance": 1.0,
        }
        assert 0.0 <= metrics["in2std"] <= 1.0

    def test_categorical_report(self, tmp_path, capsys):
        data = self._gen(
            capsys, tmp_path, "categorical", "cat.csv",
            "--timesteps", "4", "--classes", "3", "--seed", "3",
        )
        out = str(tmp_path / "report.json")
        rc, _, _ = run(
            capsys,
            "experiment", "categorical", "--data", data, "--out", out,
            "--seed", "0", "--draws", "150",
        )
        assert rc == 0
        report = json.loads(open(out).read())
        assert report["classes"] == [0, 1, 2]
        assert 0.0 <= report["metrics"]["train"]["accuracy"] <= 1.0

    def test_covariance_report(self, tmp_path, capsys):
        data = self._gen(
            capsys, tmp_path, "covariance", "cov.csv", "--timesteps", "4", "--seed", "4"
        )
        out = str(tmp_path / "report.json")
        rc, _, _ = run(
            capsys,
            "experiment", "covariance", "--data", data, "--out", out,
            "--seed", "0", "--draws", "100",
        )
        assert rc == 0
        report = json.loads(open(out).read())
        assert report["metrics"]["train"]["min_mean_eigenvalue"] > -1e-8

    def test_lengthscale_without_kernel(self, tmp_path, capsys):
        data = self._gen(capsys, tmp_path, "binary", "b.csv", "--n", "20", "--seed", "0")
        rc, _, err = run(
            capsys,
            "experiment", "binary", "--data", data, "--out", str(tmp_path / "r.json"),
            "--lengthscale", "2.0",
        )
        assert rc == 2 and "--kernel" in err

    def test_negative_lengthscale_is_a_usage_error(self, tmp_path, capsys):
        data = self._gen(capsys, tmp_path, "binary", "b.csv", "--n", "20", "--seed", "0")
        rc, _, err = run(
            capsys,
            "experiment", "binary", "--data", data, "--out", str(tmp_path / "r.json"),
            "--kernel", "rbf", "--lengthscale", "-1",
        )
        assert rc == cli.EXIT_USAGE
        assert err == "error: InvalidParams: lengthscale and variance must be positive\n"


class TestConfigMerge:
    def test_config_fills_unset_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 400, "metrics": "kl", "seed": 0}))
        out_a = str(tmp_path / "a.csv")
        out_b = str(tmp_path / "b.csv")
        rc, _, _ = run(
            capsys,
            "distances", "--family", "beta", "--config", str(cfg), "--out", out_a,
        )
        assert rc == 0
        rc, _, _ = run(
            capsys,
            "distances", "--family", "beta", "--n", "400", "--metrics", "kl",
            "--seed", "0", "--out", out_b,
        )
        assert rc == 0
        assert open(out_a).read() == open(out_b).read()

    def test_explicit_flag_beats_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "gamma", "n": 300, "metrics": "kl"}))
        out = str(tmp_path / "sweep.csv")
        rc, _, _ = run(
            capsys,
            "distances", "--family", "beta", "--config", str(cfg),
            "--seed", "0", "--out", out,
        )
        assert rc == 0
        header = open(out).readline().strip().split(",")
        assert header == ["grid_index", "logit.kl"]

    def test_every_optional_experiment_flag_is_a_config_key(self, tmp_path, capsys):
        data = str(tmp_path / "bin.csv")
        run(capsys, "gen", "binary", "--out", data, "--n", "40", "--seed", "4")
        out = str(tmp_path / "r.json")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "data": data, "test": data, "out": out, "basis": "logit", "kernel": "rq",
            "lengthscale": 1.5, "variance": 2.0, "kernel-alpha": 0.7, "epsilon_a": 0.05,
            "seed": 3, "inducing": 5, "draws": 50, "pipeline_version": "v2",
            "dirichlet-prior": 2.0,
        }))
        rc, _, err = run(capsys, "experiment", "binary", "--config", str(cfg))
        assert rc == 0, err
        report = json.loads(open(out).read())
        config = report["config"]
        assert (config["data"], config["test"], config["out"]) == (data, data, out)
        assert config["kernel"] == {
            "kernel": "rational_quadratic", "lengthscale": 1.5, "alpha": 0.7, "variance": 2.0
        }
        assert (config["basis"], config["epsilon_a"], config["seed"]) == ("logit", 0.05, 3)
        assert (config["inducing"], config["draws"], config["version"]) == (5, 50, "v2")
        assert config["dirichlet_prior"] == 2.0
        assert "test" in report["metrics"]

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        rc, _, err = run(
            capsys,
            "distances", "--family", "beta", "--config", str(cfg),
            "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2 and "unknown key" in err

    def test_config_must_be_json_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        rc, _, err = run(
            capsys,
            "distances", "--family", "beta", "--config", str(cfg),
            "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2 and "JSON object" in err


class TestDistancesCommand:
    def test_sweep_writes_wide_and_long(self, tmp_path, capsys):
        out = str(tmp_path / "exp.csv")
        rc, stdout, _ = run(
            capsys,
            "distances", "--family", "exponential", "--metrics", "kl",
            "--n", "300", "--seed", "1", "--out", out,
        )
        assert rc == 0 and "10 grid points x 2 bases" in stdout
        wide = open(out).read().splitlines()
        assert wide[0] == "grid_index,log.kl,sqrt.kl"
        assert len(wide) == 11
        long_path = str(tmp_path / "exp_long.csv")
        long_lines = open(long_path).read().splitlines()
        assert long_lines[0] == "grid_index,basis,metric,value,se"
        assert len(long_lines) == 21

    def test_inline_grid(self, tmp_path, capsys):
        out = str(tmp_path / "one.csv")
        rc, _, _ = run(
            capsys,
            "distances", "--family", "beta",
            "--grid", json.dumps([{"alpha": 2.0, "beta": 2.0}]),
            "--metrics", "kl", "--n", "300", "--seed", "0", "--out", out,
        )
        assert rc == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 2
        assert float(lines[1].split(",")[1]) >= 0.0

    def test_bad_grid_argument(self, tmp_path, capsys):
        rc, _, err = run(
            capsys,
            "distances", "--family", "beta", "--grid", "not-json-not-a-file",
            "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2 and "--grid" in err

    def test_family_required(self, tmp_path, capsys):
        rc, _, err = run(capsys, "distances", "--out", str(tmp_path / "x.csv"))
        assert rc == 2 and "--family" in err

    def test_unknown_metric_is_a_usage_error_and_writes_nothing(self, tmp_path, capsys):
        # exited 0 with "error: unknown metric 'foo'" in every foo cell
        out = tmp_path / "d.csv"
        rc, _, err = run(
            capsys, "distances", "--family", "gamma", "--metrics", "kl,foo", "--out", str(out)
        )
        assert rc == 2
        assert err.splitlines() == ["error: InvalidParams: unknown metric 'foo' (known: kl, mmd)"]
        assert list(tmp_path.iterdir()) == []


class TestOracleCheckCommand:
    def test_exponential_passes(self, capsys):
        rc, out, _ = run(capsys, "oracle-check", "--families", "exponential")
        assert rc == 0
        # identity rows are skipped (no standard-basis mode), the rest pass
        assert "0 failures" in out
        assert "skipped" in out

    def test_corrupt_inverse_detected(self, tmp_path, capsys):
        table = str(tmp_path / "table.csv")
        rc, out, _ = run(
            capsys,
            "oracle-check", "--families", "gamma", "--bases", "sqrt",
            "--corrupt-inverse", "--out", table,
        )
        assert rc == 1
        assert "FAIL" in out and "round-trip" in out
        assert "FAIL" in open(table).read()

    def test_empty_selection(self, capsys):
        rc, out, _ = run(capsys, "oracle-check", "--families", "gamma", "--bases", "logit")
        assert rc == 0 and "0 rows, 0 failures" in out


class TestTopLevel:
    def test_version_flag(self, capsys):
        rc, out, _ = run(capsys, "--version")
        assert rc == 0 and cli.VERSION in out

    def test_missing_command(self, capsys):
        assert run(capsys, *[])[0] == 2

    def test_seed_env_fallback(self, tmp_path, capsys, monkeypatch):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        monkeypatch.setenv("LAPLACE_MATCH_SEED", "9")
        assert cli.main(["gen", "counts", "--out", a, "--n", "20"]) == 0
        monkeypatch.delenv("LAPLACE_MATCH_SEED")
        assert cli.main(["gen", "counts", "--out", b, "--n", "20", "--seed", "9"]) == 0
        capsys.readouterr()
        assert open(a).read() == open(b).read()

    def test_bad_seed_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("LAPLACE_MATCH_SEED", "not-an-int")
        rc, _, err = run(capsys, "gen", "counts", "--out", str(tmp_path / "x.csv"))
        assert rc == 2 and "LAPLACE_MATCH_SEED" in err
