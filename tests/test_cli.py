import hashlib
import json
from pathlib import Path

import pytest

from primelab import cli

ZEROS = str(Path(__file__).parent / "data" / "zeta_zeros_100.txt")


def _run(args):
    return cli.main(args)


def _manifest(outdir):
    return json.loads((Path(outdir) / "manifest.json").read_text())


def test_goldbach_subcommand(tmp_path):
    out = tmp_path / "gb"
    assert _run(["--out", str(out), "goldbach", "--ring", "gaussian",
                 "--variant", "open-even", "--max", "60"]) == 0
    m = _manifest(out)
    assert m["schema"] == 1
    assert m["zero_cells"] == 0
    csv = (out / "goldbach.csv").read_text().splitlines()
    assert csv[0] == "re,im,count"


def test_hl_western(tmp_path):
    out = tmp_path / "hl"
    assert _run(["--out", str(out), "hl", "--western",
                 "--cutoff", "1000"]) == 0
    data = json.loads((out / "hl.json").read_text())
    assert abs(data["C"] - 1.37281346) < 1e-8


def test_matrix_scan_threshold(tmp_path):
    out = tmp_path / "mat"
    assert _run(["--out", str(out), "matrix", "--z0", "1",
                 "--scan", "60", "--detgrowth", "10"]) == 0
    assert _manifest(out)["threshold"] == 28
    csv = (out / "det_growth.csv").read_text().splitlines()
    assert csv[0] == "n,det_sign,log_abs_det"


def test_smith(tmp_path):
    out = tmp_path / "sm"
    assert _run(["--out", str(out), "smith", "--n", "7"]) == 0
    data = json.loads((out / "smith.json").read_text())
    assert data["det"] == "192"
    assert data["residual"] == "0"


def test_graphs(tmp_path):
    out = tmp_path / "g"
    assert _run(["--out", str(out), "graphs", "--kind", "gcd",
                 "--n", "30"]) == 0
    stats = (out / "stats.csv").read_text().splitlines()
    assert stats[0] == "n,V,E,components,chi"
    edges = (out / "edges.csv").read_text().splitlines()
    assert edges[0] == "u,v"


@pytest.mark.parametrize("kind,n,stats_sha,edges_sha", [
    ("gaussian", "40",
     "35738c509c6e8e93cf883e0bdf1951558a074d69cbb75ebbf4df05b1391ead45",
     "c62afb590272445c09b09c8f46f91c5250a2c80e376d7d2ba79b7d36d91339df"),
    ("gcd", "30",
     "4e95791f7e1b168483c8b815854577b5c0984bf272dd7f6960fca17a7b5096a1",
     "4da0a3fc1058a8e21fcb1d94a51cc5e2fa030c95f02b60b3687f94e68132140a"),
])
def test_graphs_data_digests(tmp_path, kind, n, stats_sha, edges_sha):
    out = tmp_path / kind
    assert _run(["--out", str(out), "graphs", "--kind", kind,
                 "--n", n]) == 0
    for name, want in (("stats.csv", stats_sha), ("edges.csv", edges_sha)):
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == want


# sha256 of the matrix data files, recorded before the scan became one rank
# pass mod p and --detgrowth one matrix build
@pytest.mark.parametrize("z0,scan,scan_sha,det_sha", [
    ("1", "200",
     "931f0f52dbfd45f274bb8fbaf9d5187b52b384806def0ec873c92630d3634145",
     "3804e7a3311b84d4e18a7e0aa441e8455090e47c95cf81fa0d5f3c8173d3d444"),
    ("2", "100",
     "7016f1bc7bda40456c4db8ab83423552cd83ffbe535b4139e50e1c905265c0c0",
     "ded50f56fed3a8000820c86c76e97b39f73bc88720c55b3f7ff5ecbad4af7d77"),
])
def test_matrix_data_digests(tmp_path, z0, scan, scan_sha, det_sha):
    out = tmp_path / "m"
    assert _run(["--out", str(out), "matrix", "--z0", z0, "--scan", scan,
                 "--detgrowth", "30"]) == 0
    for name, want in (("scan.json", scan_sha), ("det_growth.csv", det_sha)):
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == want


def test_detgrowth_builds_the_matrix_once(tmp_path, monkeypatch):
    from primelab import specmat as sm

    built = []
    real = sm.build_prime_matrix

    def counting(z0, n):
        built.append(n)
        return real(z0, n)

    passes = []
    real_minors = sm.leading_minors

    def counting_passes(m):
        passes.append(len(m))
        return real_minors(m)

    monkeypatch.setattr(sm, "build_prime_matrix", counting)
    monkeypatch.setattr(sm, "leading_minors", counting_passes)
    assert _run(["--out", str(tmp_path / "d"), "matrix", "--z0", "1",
                 "--detgrowth", "30"]) == 0
    assert built == [30]
    assert passes == [30]  # one exact pass gives all 30 leading minors


def test_graphs_capacity_error_exit_3(tmp_path, capsys):
    out = tmp_path / "cap"
    assert _run(["--out", str(out), "graphs", "--kind", "gcd",
                 "--n", "1000000"]) == 3
    assert "capacity error: gcd graph n=1000000" in capsys.readouterr().err


def test_zeta_explicit(tmp_path):
    out = tmp_path / "z"
    assert _run(["--out", str(out), "zeta", "--explicit", "--zeros", ZEROS,
                 "--K", "20", "--xmax", "20"]) == 0
    csv = (out / "psi.csv").read_text().splitlines()
    assert csv[0] == "x,psi,explicit_psi,K"


def test_ca_and_angles_and_more(tmp_path):
    out = tmp_path / "ca"
    assert _run(["--out", str(out), "ca", "--window", "12", "--steps", "1",
                 "--moat", "0"]) == 0
    assert (out / "grid.rle").exists()
    assert (out / "grid.pbm").exists()
    assert _run(["--out", str(tmp_path / "ang"), "angles",
                 "--count", "50"]) == 0
    assert _run(["--out", str(tmp_path / "ap"), "almostper",
                 "--nmax", "6"]) == 0
    assert _run(["--out", str(tmp_path / "hp"), "hyperplane",
                 "--a", "1", "--n", "4"]) == 0


def test_deterministic_data_bytes(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert _run(["--out", str(out), "goldbach", "--max", "40"]) == 0
        outs.append((out / "goldbach.csv").read_bytes()
                    + (out / "goldbach.json").read_bytes())
    assert outs[0] == outs[1]


# sha256 of goldbach.csv and goldbach.json, recorded before the unrestricted
# cone joined the convolution engine; only unrestricted runs changed bytes
@pytest.mark.parametrize("args,csv_sha,json_sha", [
    (["--ring", "gaussian", "--variant", "open-even", "--max", "60"],
     "35836c575ec15974735a3ebf77425da9f55ec76b98fc263421ae735d766c41f3",
     "6661b9ff08279f7cb6bb9cdcfe8ca0d9fd8fb43332a41942288a199ad805875a"),
    (["--ring", "gaussian", "--variant", "open", "--max", "40"],
     "72dc1d075761ac88ed73c0c57b8638edc4da803dcb90176b7f3a6723572adda6",
     "7eb4f30a96961c823801ee5e60a7eead1c19495170a9e64c5a846d32fde262b0"),
    (["--ring", "eisenstein", "--variant", "open", "--max", "40"],
     "0be04b59bb4891dbb1261d5220ebde3261bb77f98067a785b27ad172ab19f0ea",
     "f63f8f9c03f3980395ac0542f9366262481433c81322c5f59df96f9b4d447375"),
])
def test_goldbach_data_digests(tmp_path, args, csv_sha, json_sha):
    out = tmp_path / "gb"
    assert _run(["--out", str(out), "goldbach", *args]) == 0
    for name, want in (("goldbach.csv", csv_sha), ("goldbach.json", json_sha)):
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == want


def test_goldbach_unrestricted_records_window(tmp_path):
    out = tmp_path / "gb"
    assert _run(["--out", str(out), "goldbach", "--variant", "unrestricted",
                 "--max", "12"]) == 0
    data = json.loads((out / "goldbach.json").read_text())
    assert data["window"] == 2
    assert data["zero_cells"] == []


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["nonsense"])
    assert exc.value.code == 2


def test_capacity_error_exit_3(tmp_path, monkeypatch, capsys):
    from primelab import specmat as sm

    def build(*_args):
        raise AssertionError("the refused matrix was built")

    # the cap is checked before the n×n matrix is allocated
    monkeypatch.setattr(sm, "build_prime_matrix", build)
    out = tmp_path / "cap"
    code = _run(["--out", str(out), "matrix", "--z0", "1",
                 "--spectrum", "9999"])
    assert code == 3
    assert ("capacity error: matrix size 9999 above solver cap 4000"
            in capsys.readouterr().err)


def test_graphs_builds_each_graph_once(tmp_path, monkeypatch):
    from primelab import primegraphs as pg

    built = []
    real = pg.gcd_graph

    def counting(n):
        built.append(n)
        return real(n)

    monkeypatch.setattr(pg, "gcd_graph", counting)
    assert _run(["--out", str(tmp_path / "one"), "graphs", "--kind", "gcd",
                 "--n", "30"]) == 0
    assert built == [30]
    built.clear()
    assert _run(["--out", str(tmp_path / "range"), "graphs", "--kind", "gcd",
                 "--min", "27", "--n", "30"]) == 0
    assert built == [27, 28, 29, 30]
    built.clear()
    out = tmp_path / "empty"
    assert _run(["--out", str(out), "graphs", "--kind", "gcd",
                 "--min", "40", "--n", "30"]) == 0
    assert built == [30]
    assert (out / "stats.csv").read_text() == "n,V,E,components,chi\n"
    assert (out / "edges.csv").read_text().splitlines()[0] == "u,v"


@pytest.mark.parametrize("args,what", [
    (["hyperplane", "--a", "1", "--n", "2000"],
     "doubled-coordinate prime mask over (1, 2000, 2000, 2000)"),
    (["ca", "--window", "100000"], "Gaussian prime mask"),
    (["smith", "--n", "20000"], "exact pass over a 20000x20000 matrix"),
    (["matrix", "--detgrowth", "5000"], "exact pass over a 5000x5000 matrix"),
    (["goldbach", "--ring", "eisenstein", "--variant", "open", "--max",
      "20000"], "FFT convolution of a (19999, 19999) mask"),
    (["goldbach", "--ring", "gaussian", "--variant", "open", "--max", "5000"],
     "FFT convolution of a (4999, 4999) mask"),
    (["zeta", "--ring", "eisenstein", "--cutoff", "100000000"],
     "Eisenstein norm count table to 100000000"),
    (["almostper", "--nmax", "20000"], "almost-periodic matrix, order 20000"),
    (["hl", "--empirical", "1000000000"], "empirical ratio to 1000000000"),
])
def test_capacity_refused_before_allocation_exit_3(tmp_path, capsys, args,
                                                   what):
    assert _run(["--out", str(tmp_path / "cap"), *args]) == 3
    assert f"capacity error: {what}" in capsys.readouterr().err


# sha256 of the ca/angles data files, recorded before these outputs were
# computed from arrays; the array code must reproduce them byte for byte
@pytest.mark.parametrize("args,digests", [
    (["ca", "--window", "12", "--steps", "1", "--moat", "0"], {
        "grid.rle":
        "33ec6f59cc4e9f1cee157b3a720c4f7ed4aed8b54f553e597e7c8b3ed67ae423",
        "grid.pbm":
        "d1dfc53b0cfb1443370d15e75ee9d553ea8976dac7a967ac1f6397f180d169ec",
        "moat.csv":
        "7d9aa5115f092ae9735ace59160655ef83d979ed5863ecaac27d00d14de4760a"}),
    (["ca", "--window", "300", "--steps", "3", "--moat", "2"], {
        "grid.rle":
        "8c66fbda35cc63203bae1d2db38a540680a008a42869c16ff24d74791d0bb2f0",
        "grid.pbm":
        "42f55566a902dc1d749489c831d89a7d6cbf6f83905bfc7db568b927120633bc",
        "moat.csv":
        "8abfd8b9cc4593b5c868bbec6decbb5db9160473c97d45aa5771ef38208468c3"}),
    (["angles", "--count", "50"], {
        "angles.csv":
        "bcba21a7b98eabadbd482e11f08386ecde35ea12ecc0df02fd4ae8429518ecd6"}),
    (["angles", "--count", "5000"], {
        "angles.csv":
        "cf777da66c0d95ee96c0db7c28f6fd550d7b05bad091f441eb58888b93e392ee"}),
])
def test_ca_and_angles_data_digests(tmp_path, args, digests):
    out = tmp_path / "run"
    assert _run(["--out", str(out), *args]) == 0
    for name, want in digests.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == want


@pytest.mark.parametrize("args,what", [
    (["ca", "--window", "1", "--moat", "0"], "1+i must be inside the window"),
    (["ca", "--window", "-3"], "window >= 0 required"),
    (["angles", "--count", "0"], "count >= 1 required"),
    (["zeta", "--explicit", "--zeros", ZEROS, "--K", "5", "--xmax", "20",
      "--step", "0"], "--step must be > 0"),
    (["zeta", "--explicit", "--zeros", ZEROS, "--K", "5", "--xmax", "20",
      "--step", "-1"], "--step must be > 0"),
    (["matrix", "--scan", "0"], "n >= 1 required"),
    (["matrix", "--spectrum", "0"], "n >= 1 required"),
    (["matrix", "--detgrowth", "0"], "n >= 1 required"),
    (["goldbach", "--ring", "eisenstein", "--variant", "unrestricted",
      "--max", "10"], "eisenstein sums are open-cone"),
    (["goldbach", "--max", "1"], "--max must be >= 2, got 1"),
    (["zeta", "--explicit", "--zeros", ZEROS, "--K", "-1", "--xmax", "20"],
     "K must be in 0..100, got -1"),
    (["ca", "--window", "5", "--steps", "-1"], "--steps must be >= 0, got -1"),
    (["almostper", "--nmax", "0"], "--nmax must be >= 1, got 0"),
    (["zeta", "--explicit", "--zeros", ZEROS, "--xmin", "30", "--xmax", "20"],
     "--xmax must be >= --xmin, got 20.0 < 30.0"),
    (["hl", "-a", "0", "--cutoff", "100"], "a != 0 required"),
    (["hl", "-a", "-1", "--cutoff", "100"], "a = -1 = -k² refused"),
    (["hl", "-a", "-4", "--cutoff", "100"], "a = -4 = -k² refused"),
    (["smith", "--n", "-3"], "n >= 1 required"),
    (["smith", "--n", "0"], "n >= 1 required"),
    (["zeta", "--cutoff", "-5"], "X >= 1 required"),
    (["zeta", "--cutoff", "0"], "X >= 1 required"),
])
def test_rejected_argument_exit_2(tmp_path, capsys, args, what):
    assert _run(["--out", str(tmp_path / "bad"), *args]) == 2
    assert f"usage error: {what}" in capsys.readouterr().err


def test_smith_computes_the_product_once(tmp_path, monkeypatch):
    from primelab import ratkernel as rk

    calls = []
    real = rk.jordan_totient

    def counting(k, s=1):
        calls.append(k)
        return real(k, s)

    monkeypatch.setattr(rk, "jordan_totient", counting)
    out = tmp_path / "s"
    assert _run(["--out", str(out), "smith", "--n", "7"]) == 0
    assert sorted(calls) == [1, 2, 3, 4, 5, 6, 7]
    data = json.loads((out / "smith.json").read_text())
    assert data["det"] == "192" and data["residual"] == "0"
