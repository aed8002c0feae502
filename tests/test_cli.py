"""Tests for the ``python -m repro`` CSV comparison CLI."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def csv_pair(tmp_path):
    left = tmp_path / "left.csv"
    left.write_text(
        "Name,Year,Org\nVLDB,1975,VLDB End.\nSIGMOD,1975,_N:N1\n"
    )
    right = tmp_path / "right.csv"
    right.write_text(
        "Name,Year,Org\nVLDB,1975,_N:V1\nSIGMOD,1975,ACM\n"
    )
    return str(left), str(right)


class TestSimilarityCommand:
    def test_prints_score(self, csv_pair, capsys):
        left, right = csv_pair
        assert main(["similarity", left, right, "--preset", "versioning"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == f"{(4 + 2 * 0.5) / 6:.6f}"

    def test_lambda_flag(self, csv_pair, capsys):
        left, right = csv_pair
        main(["similarity", left, right, "--preset", "versioning",
              "--lam", "0.0"])
        assert capsys.readouterr().out.strip() == f"{4 / 6:.6f}"


class TestCompareCommand:
    def test_human_output(self, csv_pair, capsys):
        left, right = csv_pair
        assert main(["compare", left, right, "--preset", "versioning"]) == 0
        out = capsys.readouterr().out
        assert "similarity: 0.833333" in out
        assert "matched: 2" in out

    def test_explain(self, csv_pair, capsys):
        left, right = csv_pair
        main(["compare", left, right, "--explain"])
        out = capsys.readouterr().out
        assert "Matched pairs" in out
        assert "V1→'VLDB End.'" in out

    def test_json_output(self, csv_pair, capsys):
        left, right = csv_pair
        main(["compare", left, right, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["similarity"] == pytest.approx(0.8333333)
        assert payload["algorithm"] == "signature"

    def test_exact_algorithm(self, csv_pair, capsys):
        left, right = csv_pair
        main(["compare", left, right, "--algorithm", "exact",
              "--preset", "versioning"])
        assert "algorithm:  exact" in capsys.readouterr().out

    def test_totality_warning(self, tmp_path, capsys):
        left = tmp_path / "l.csv"
        left.write_text("A\nx\ny\n")
        right = tmp_path / "r.csv"
        right.write_text("A\nx\n")
        main(["compare", str(left), str(right),
              "--preset", "universal-vs-core"])
        assert "warning:" in capsys.readouterr().out

    def test_align_schemas_flag(self, tmp_path, capsys):
        left = tmp_path / "l.csv"
        left.write_text("A,B\nx,y\n")
        right = tmp_path / "r.csv"
        right.write_text("A\nx\n")
        assert main([
            "compare", str(left), str(right), "--align-schemas",
            "--preset", "versioning",
        ]) == 0
        assert "similarity: 0.75" in capsys.readouterr().out


class TestErrors:
    def test_missing_file(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["similarity", str(tmp_path / "nope.csv"),
                  str(tmp_path / "nope2.csv")])

    def test_unknown_preset(self, csv_pair):
        left, right = csv_pair
        with pytest.raises(SystemExit):
            main(["compare", left, right, "--preset", "bogus"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestDiffCommand:
    def test_structured_delta(self, csv_pair, capsys):
        left, right = csv_pair
        assert main(["diff", left, right, "--preset", "versioning"]) == 0
        out = capsys.readouterr().out
        assert "2 updated" in out
        assert "(redacted)" in out and "(filled)" in out

    def test_inserts_and_deletes_reported(self, tmp_path, capsys):
        old = tmp_path / "old.csv"
        old.write_text("A\nkeep\ngone\n")
        new = tmp_path / "new.csv"
        new.write_text("A\nkeep\nfresh\n")
        main(["diff", str(old), str(new), "--preset", "versioning"])
        out = capsys.readouterr().out
        assert "1 inserted, 1 deleted" in out


class TestCompareManyCommand:
    @pytest.fixture
    def csv_grid(self, tmp_path):
        base = tmp_path / "base.csv"
        base.write_text("Name,Year\nVLDB,1975\nSIGMOD,_N:N1\n")
        same = tmp_path / "same.csv"
        same.write_text("Name,Year\nVLDB,1975\nSIGMOD,_N:Na\n")
        far = tmp_path / "far.csv"
        far.write_text("Name,Year\nVLDB,1975\nICDE,1984\n")
        return str(base), str(same), str(far)

    def test_baseline_mode(self, csv_grid, capsys):
        base, same, far = csv_grid
        assert main([
            "compare-many", "--baseline", base, same, far,
            "--algorithm", "exact",
        ]) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert "1.000000" in lines[0]
        assert "0.500000" in lines[1]
        assert "cache:" in captured.err

    def test_pairwise_mode(self, csv_grid, capsys):
        base, same, far = csv_grid
        assert main(["compare-many", base, same, base, far]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    def test_odd_pairwise_count_is_an_error(self, csv_grid):
        base, same, _ = csv_grid
        with pytest.raises(SystemExit):
            main(["compare-many", base, same, base])

    def test_jobs_flag_agrees_with_serial(self, csv_grid, capsys):
        base, same, far = csv_grid
        main(["compare-many", "--baseline", base, same, far])
        serial = capsys.readouterr().out
        main(["compare-many", "--baseline", base, same, far, "--jobs", "2"])
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_json_output_includes_cache_stats(self, csv_grid, capsys):
        base, same, far = csv_grid
        assert main([
            "compare-many", "--baseline", base, same, far, "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["pairs"]) == 2
        assert payload["cache"]["misses"] == 3
        assert payload["cache"]["hits"] == 1
        assert payload["pairs"][0]["similarity"] == 1.0

    def test_fault_plan_degrades_not_crashes(self, csv_grid, capsys):
        base, same, far = csv_grid
        assert main([
            "compare-many", "--baseline", base, same, far,
            "--algorithm", "exact", "--jobs", "2",
            "--fault-plan", "crash@worker:1", "--retries", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "degraded" in out
        assert "†" in out


@pytest.fixture
def csv_lake(tmp_path):
    """Three lake tables plus a query: two near-duplicates, one outlier."""
    files = {}
    files["a"] = tmp_path / "a.csv"
    files["a"].write_text("A,B\nx,1\ny,2\nz,3\n")
    files["b"] = tmp_path / "b.csv"
    files["b"].write_text("A,B\nx,1\ny,2\nq,_N:N1\n")
    files["c"] = tmp_path / "c.csv"
    files["c"].write_text("A,B\np,7\nq,8\nr,9\n")
    return {name: str(path) for name, path in files.items()}


class TestIndexCommands:
    def test_build_and_search(self, csv_lake, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main([
            "index", "build", store, csv_lake["a"], csv_lake["b"],
        ]) == 0
        capsys.readouterr()
        assert main([
            "index", "search", store, csv_lake["a"], "--top-k", "2",
        ]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("1.000000")
        assert csv_lake["a"] in lines[0]
        assert csv_lake["b"] in lines[1]

    def test_incremental_add(self, csv_lake, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(["index", "build", store, csv_lake["a"]])
        assert main(["index", "add", store, csv_lake["b"]]) == 0
        capsys.readouterr()
        main(["index", "search", store, csv_lake["b"], "--top-k", "1"])
        out = capsys.readouterr().out
        assert csv_lake["b"] in out

    def test_search_brute_force_parity(self, csv_lake, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(["index", "build", store, *csv_lake.values()])
        capsys.readouterr()
        main(["index", "search", store, csv_lake["a"], "--json"])
        indexed = json.loads(capsys.readouterr().out)
        main([
            "index", "search", store, csv_lake["a"],
            "--json", "--brute-force",
        ])
        brute = json.loads(capsys.readouterr().out)
        assert indexed["hits"] == brute["hits"]
        assert brute["report"] is None
        assert indexed["report"]["refined"] >= 1

    def test_dedup_with_clusters(self, csv_lake, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(["index", "build", store, *csv_lake.values()])
        capsys.readouterr()
        assert main([
            "index", "dedup", store, "--threshold", "0.6",
            "--clusters", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        pair_names = {
            frozenset((p["first"], p["second"])) for p in payload["pairs"]
        }
        assert frozenset((csv_lake["a"], csv_lake["b"])) in pair_names
        assert payload["clusters"] == [
            sorted([csv_lake["a"], csv_lake["b"]])
        ]

    def test_dedup_brute_force_parity(self, csv_lake, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(["index", "build", store, *csv_lake.values()])
        capsys.readouterr()
        dedup = ["index", "dedup", store, "--threshold", "0.6",
                 "--clusters", "--json"]
        assert main(dedup) == 0
        indexed = json.loads(capsys.readouterr().out)
        assert main([*dedup, "--brute-force"]) == 0
        brute = json.loads(capsys.readouterr().out)
        assert indexed["pairs"] == brute["pairs"]
        assert indexed["clusters"] == brute["clusters"]
        assert indexed["clusters"] == [sorted([csv_lake["a"], csv_lake["b"]])]
        assert brute["report"] is None
        assert indexed["report"]["refined"] >= 1

    def test_add_update_json_reports_incremental(self, csv_lake, tmp_path,
                                                 capsys):
        store = str(tmp_path / "store")
        main(["index", "build", store, csv_lake["a"]])
        capsys.readouterr()
        # Evolve a.csv in place; --update routes through delta maintenance.
        (tmp_path / "a.csv").write_text("A,B\nx,1\ny,2\nz,9\nw,4\n")
        assert main([
            "index", "add", store, csv_lake["a"], "--update", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        (update,) = payload["updates"]
        assert update["mode"] == "incremental"
        assert update["tuples"] == {"inserted": 1, "deleted": 0, "updated": 1}
        assert payload["tables"] == 1

    def test_add_json_reports_added(self, csv_lake, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(["index", "build", store, csv_lake["a"]])
        capsys.readouterr()
        assert main([
            "index", "add", store, csv_lake["b"], "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [u["mode"] for u in payload["updates"]] == ["added"]

    def test_duplicate_table_rejected(self, csv_lake, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(["index", "build", store, csv_lake["a"]])
        with pytest.raises(SystemExit) as excinfo:
            main(["index", "add", store, csv_lake["a"]])
        assert excinfo.value.code == 2

    def test_search_missing_store_is_usage_error(self, tmp_path, csv_lake):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "index", "search", str(tmp_path / "nowhere"), csv_lake["a"],
            ])
        assert excinfo.value.code == 2

    def test_bad_lsh_shape_is_usage_error(self, csv_lake, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "index", "build", str(tmp_path / "store"), csv_lake["a"],
                "--perms", "8", "--bands", "4", "--rows-per-band", "4",
            ])
        assert excinfo.value.code == 2
