import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from primelab import cli
from primelab import specmat as sm

ZEROS = str(Path(__file__).parent / "data" / "zeta_zeros_100.txt")


def _run(args):
    return cli.main(args)


def _manifest(outdir):
    return json.loads((Path(outdir) / "manifest.json").read_text())


def _strict_json(path):
    """path parsed as RFC 8259 JSON: NaN, Infinity and -Infinity raise."""
    def refuse(name):
        raise ValueError(f"{path.name}: {name} is not JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


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
    # det = ∏_{k <= 7} J_s(k): 1·1·2·2·4·2·6 at s = 1, 1·3·8·12·24·24·48 at 2
    for args, det in ((["smith", "--n", "7"], "192"),
                      (["smith", "--n", "7", "--s", "2"], "7962624")):
        out = tmp_path / det
        assert _run(["--out", str(out), *args]) == 0
        data = json.loads((out / "smith.json").read_text())
        assert data["det"] == det
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


def test_zeta_explicit_x_grid_does_not_drift(tmp_path):
    # a running sum x += 0.1 wrote 5.199999999999999, ..., 5.9999999999999964
    out = tmp_path / "z"
    assert _run(["--out", str(out), "zeta", "--explicit", "--zeros", ZEROS,
                 "--K", "5", "--xmin", "5", "--xmax", "6",
                 "--step", "0.1"]) == 0
    rows = (out / "psi.csv").read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == [
        "5.0", "5.1", "5.2", "5.3", "5.4", "5.5", "5.6", "5.7", "5.8", "5.9",
        "6.0"]


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


def test_almostper_reads_alpha_beta_theta(tmp_path):
    # α = 2π·GOLDEN, the golden rotation number in radians
    alpha, beta, theta = 3.883222077450933, 0.3, 0.7
    assert alpha == 2 * math.pi * sm.GOLDEN
    out = tmp_path / "ap"
    assert _run(["--out", str(out), "almostper", "--nmax", "6",
                 "--alpha", "3.883222077450933", "--beta", "0.3",
                 "--theta", "0.7"]) == 0
    a = sm.build_almost_period(6, alpha, beta, theta)
    want = ["n,det_sign,log_abs_det"]
    for n in range(1, 7):
        sign, log_abs = np.linalg.slogdet(a[:n, :n])
        want.append(f"{n},{int(round(sign))},{float(log_abs)!r}")
    assert (out / "almostper.csv").read_text().splitlines() == want
    params = _manifest(out)["params"]
    assert (params["alpha"], params["beta"], params["theta"]) == (
        alpha, beta, theta)


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


# These files grow with the input: each runner hands the writer an iterator
# that makes the lines as they are written, never a list of all of them.
@pytest.mark.parametrize("args,name,header", [
    (["goldbach", "--max", "20"], "goldbach.csv", "re,im,count"),
    (["angles", "--count", "50"], "angles.csv", "p,theta"),
    (["ca", "--window", "12", "--moat", "1"], "moat.csv", "re,im"),
    (["graphs", "--kind", "gcd", "--n", "30"], "edges.csv", "u,v"),
])
def test_large_data_files_stream(args, name, header):
    parsed = cli.build_parser().parse_args(args)
    files, _extra = parsed.run(parsed)
    lines = files[name]
    assert not isinstance(lines, (list, tuple)) and iter(lines) is lines
    assert next(lines) == header


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


def test_hl_methods_are_exclusive_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--out", str(tmp_path / "hl"), "hl", "--western",
                  "--empirical", "1000"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


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
    # refused before its 74.5 GiB result grid is allocated
    (["goldbach", "--max", "100000"], "FFT convolution of a (99999, 99999) mask"),
])
def test_capacity_refused_before_allocation_exit_3(tmp_path, capsys, args,
                                                   what):
    assert _run(["--out", str(tmp_path / "cap"), *args]) == 3
    assert f"capacity error: {what}" in capsys.readouterr().err


@pytest.mark.parametrize("mode,what", [
    (["--detgrowth", "5000"], "exact pass over a 5000x5000 matrix"),
    (["--spectrum", "4001"], "matrix size 4001 above solver cap 4000"),
])
def test_matrix_refuses_before_it_runs_any_mode(tmp_path, monkeypatch, capsys,
                                                mode, what):
    def no_scan(*args):
        raise AssertionError("scan ran before a refused mode")

    monkeypatch.setattr(sm, "invertibility_scan", no_scan)
    assert _run(["--out", str(tmp_path / "cap"), "matrix", "--scan", "400",
                 *mode]) == 3
    assert f"capacity error: {what}" in capsys.readouterr().err


@pytest.mark.parametrize("args,what", [
    # 2·3000 + 1 + 2 > 4096 and 2·2047 + 1 + 2 > 4096
    (["--window", "3000", "--moat", "1"], "dilation exceeds window cap"),
    (["--window", "2047", "--steps", "1"],
     "window would exceed 4096 cells a side"),
    (["--window", "1000", "--steps", "1", "--moat", "1100"],
     "dilation exceeds window cap"),
])
def test_ca_over_the_window_cap_is_refused_before_the_grid(
        tmp_path, monkeypatch, capsys, traced_peak, args, what):
    from primelab import caworld as ca

    def no_grid(window):
        raise AssertionError("grid built for a refused ca run")

    monkeypatch.setattr(ca, "grid_from_gaussian_primes", no_grid)
    code, peak = traced_peak(_run, ["--out", str(tmp_path / "cap"), "ca",
                                    *args])
    assert code == 3
    assert f"capacity error: {what}" in capsys.readouterr().err
    assert peak < 2**20


def test_ca_negative_moat_is_refused_before_the_grid(tmp_path, monkeypatch,
                                                     capsys):
    from primelab import caworld as ca

    def no_grid(window):
        raise AssertionError("grid built for a refused ca run")

    monkeypatch.setattr(ca, "grid_from_gaussian_primes", no_grid)
    assert _run(["--out", str(tmp_path / "bad"), "ca", "--window", "2000",
                 "--moat", "-1"]) == 2
    assert ("usage error: --moat must be >= 0, got -1"
            in capsys.readouterr().err)


def test_angles_count_refused_before_allocation_exit_3(tmp_path, monkeypatch,
                                                      capsys, traced_peak):
    from primelab import ratkernel as rk

    def no_sieve(*args):
        raise AssertionError("sieve built for a refused angle count")

    # 10⁹ angles need a 4.6·10¹⁰ sieve and 6.5·10¹⁰ B of angles
    monkeypatch.setattr(rk, "sieve", no_sieve)
    code, peak = traced_peak(_run, ["--out", str(tmp_path / "cap"), "angles",
                                    "--count", "1000000000"])
    assert code == 3
    assert ("capacity error: 1000000000 prime angles"
            in capsys.readouterr().err)
    assert peak < 2**20


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
    (["hl", "--empirical", "0"], "n >= 2 required"),
    (["matrix", "--z0", "2"],
     "one of --scan, --spectrum, --detgrowth required"),
    (["hl", "--western", "-a", "5", "--cutoff", "100"],
     "hl --western does not read -a"),
    (["zeta", "--explicit", "--zeros", ZEROS, "--ring", "eisenstein",
      "--s", "7"], "zeta --explicit does not read --ring"),
    (["zeta", "--K", "5", "--xmin", "3"],
     "zeta without --explicit does not read --K"),
    (["ca", "--window", "5", "--moat", "-1"], "--moat must be >= 0, got -1"),
    (["angles", "--count", "1"], "at least 4 angles required, got 1"),
    (["angles", "--count", "3"], "at least 4 angles required, got 3"),
])
def test_rejected_argument_exit_2(tmp_path, capsys, args, what):
    assert _run(["--out", str(tmp_path / "bad"), *args]) == 2
    assert f"usage error: {what}" in capsys.readouterr().err


@pytest.mark.parametrize("out,zeros,what", [
    ("file", ZEROS, "--out {out}: File exists"),
    ("file/sub", ZEROS, "--out {out}: Not a directory"),
    ("z", "missing.txt", "--zeros {zeros}: No such file or directory"),
    ("z", ".", "--zeros {zeros}: Is a directory"),
], ids=["out-file", "out-under-file", "zeros-missing", "zeros-directory"])
def test_unusable_path_exit_2(tmp_path, capsys, out, zeros, what):
    # paths relative to tmp_path, which holds one file; ZEROS is absolute
    (tmp_path / "file").write_text("kept\n")
    out, zeros = str(tmp_path / out), str(tmp_path / zeros)
    assert _run(["--out", out, "zeta", "--explicit", "--zeros", zeros,
                 "--K", "5", "--xmax", "20"]) == 2
    err = capsys.readouterr().err
    assert err == f"usage error: {what.format(out=out, zeros=zeros)}\n"
    assert (tmp_path / "file").read_text() == "kept\n"


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


# The README's ten commands, with the sha256 of each data file that no other
# test pins, recorded before one writer wrote every CLI output
@pytest.mark.parametrize("args,digests", [
    (["goldbach", "--ring", "gaussian", "--variant", "open-even", "--max",
      "60"], {}),
    (["hl", "--western", "--cutoff", "1000"], {
        "hl.json":
        "2886a87e8f0ca28860634f0b522b92d1b94855f09dfb07f4a79fd4e215537400"}),
    (["matrix", "--z0", "1", "--scan", "60", "--detgrowth", "10"], {}),
    (["smith", "--n", "7"], {
        "smith.json":
        "896d0c79ffbb919b6399d4fec4e7dc36cb3ccf875bb48bc13ac53571cabd3592"}),
    (["graphs", "--kind", "gcd", "--n", "30"], {}),
    (["zeta", "--explicit", "--zeros", ZEROS, "--K", "20", "--xmax", "20"], {
        "psi.csv":
        "7302a268a8aa9da0ad2a3b14109b171f4980bf54761c8ce8ab1eb4ba16cdfeaa"}),
    (["ca", "--window", "12", "--steps", "1", "--moat", "0"], {}),
    (["angles", "--count", "50"], {
        "angles.json":
        "00640383ba456e9c5c9537dca44991c68eac9764ab693451fe848724bf9134c0"}),
    (["almostper", "--nmax", "6"], {
        "almostper.csv":
        "26645a9cf201a1af680092d415c8ecfc8f3a0313b91922881a7872af1c347664"}),
    (["hyperplane", "--a", "1", "--n", "4"], {
        "hyperplane.json":
        "f944457412c4e6431df2306b3081b0bfcd51c4d6e63ec4eefc136e820ea585db"}),
])
def test_readme_command_outputs(tmp_path, args, digests):
    out = tmp_path / "run"
    assert _run(["--out", str(out), *args]) == 0
    files = sorted(p.name for p in out.iterdir())
    files.remove("manifest.json")
    assert _manifest(out)["outputs"] == files
    for name, want in digests.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == want
    for path in out.glob("*.json"):
        assert isinstance(_strict_json(path), dict)


def test_hyperplane_at_n_1_exits_2_with_no_file(tmp_path, capsys):
    """(n log n)² is 0 at n = 1: refused, where Infinity was written."""
    out = tmp_path / "hp"
    assert _run(["--out", str(out), "hyperplane", "--a", "1", "--n", "1"]) == 2
    assert "usage error: n >= 2 required" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("where", ["data", "manifest"])
def test_a_non_finite_float_is_refused_before_its_file_opens(
        tmp_path, capsys, monkeypatch, where):
    """A NaN in a data dict or in the manifest exits 2 and leaves no file
    of that name: JSON files are strict."""
    data = {"x": math.nan} if where == "data" else {"x": 1.0}
    extra = {"y": math.inf} if where == "manifest" else {}
    monkeypatch.setattr(cli, "_run_smith",
                        lambda args: ({"smith.json": data}, extra))
    out = tmp_path / "run"
    assert _run(["--out", str(out), "smith", "--n", "3"]) == 2
    assert "usage error: Out of range float values" in capsys.readouterr().err
    written = sorted(p.name for p in out.iterdir())
    assert written == ([] if where == "data" else ["smith.json"])
    with pytest.raises(ValueError, match="Out of range float values"):
        cli._emit(tmp_path, {"direct.json": {"z": -math.inf}})
    assert not (tmp_path / "direct.json").exists()


# sha256 recorded before the runners refused options their mode does not read
@pytest.mark.parametrize("args,name,digest", [
    (["zeta", "--ring", "gaussian", "--s", "2", "--cutoff", "10000"],
     "zeta.json",
     "20d282070ea303e5538d864ef6376ee812dd53b2a09efd3e23fc8a9a6cda6647"),
    (["zeta", "--ring", "eisenstein", "--s", "3"], "zeta.json",
     "83530e2abd5d6f8cf37b4b1c896a8f90d6ee69adcb111c96754a164834ca4e37"),
    (["hl", "--empirical", "1000000"], "ratio.csv",
     "e8ab1701e5fc70b091eca0cff2d404ebf3060fae585f5930d17f97d3709a4ed0"),
])
def test_lattice_zeta_and_empirical_ratio_digests(tmp_path, args, name,
                                                   digest):
    out = tmp_path / "run"
    assert _run(["--out", str(out), *args]) == 0
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_spectrum_csv_rows_are_numbers(tmp_path):
    out = tmp_path / "m"
    assert _run(["--out", str(out), "matrix", "--spectrum", "40"]) == 0
    header, *rows = (out / "spectrum.csv").read_text().splitlines()
    assert header == "re,im" and len(rows) == 40
    for row in rows:
        assert len(list(map(float, row.split(",")))) == 2
    assert hashlib.sha256((out / "spectrum.csv").read_bytes()).hexdigest() \
        == "6bdfc1cd7612550824fe0b426176cc769555f1fdae837500d176bf4653eab7d4"


def test_spectrum_residual_bound_in_manifest(tmp_path):
    from primelab import specmat as sm
    out = tmp_path / "m"
    assert _run(["--out", str(out), "matrix", "--spectrum", "40"]) == 0
    bound = _manifest(out)["residual_bound"]
    assert bound == sm.spectrum(sm.build_prime_matrix(1, 40)).residual_bound
    assert 0 <= bound < 1e-8


@pytest.mark.parametrize("args, library", [
    (["goldbach", "--ring", "gaussian", "--variant", "open-even",
      "--max", "60"], "scipy"),
    (["zeta", "--explicit", "--zeros", ZEROS, "--K", "20", "--xmax", "20"],
     "mpmath"),
])
def test_manifest_names_the_libraries_run(tmp_path, args, library):
    # smith, which loads neither, runs in a fresh interpreter in
    # tests/test_ratkernel.py: this process has loaded both already, and
    # numpy before primelab.cli, so its BLAS threads are not known
    assert _run(["--out", str(tmp_path), *args]) == 0
    m = _manifest(tmp_path)
    assert m["versions"][library] == sys.modules[library].__version__
    assert m["openblas_num_threads"] is None
