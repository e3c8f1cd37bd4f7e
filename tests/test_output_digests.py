"""Byte-identity guard: the exported files of a small default-config run are
pinned by SHA-256, so a refactor that changes any output bit fails here.
The same runs guard the sample path's arrays: `run_generation` builds no
`VehicleState`, `Pose2D` or `Trajectory`, and no `PerturbationCandidate`
once a scenario's `grid_sparsify` has returned.

The vocabulary comes straight from `synthesize_maneuvers`, without the
k-means matmul of `build_vocabulary`. The digests still depend on the
machine. The tracker's gain solve (`control._solve_gains`: OpenBLAS 4x4
products and a LAPACK solve) and recovery retrieval's `d @ np.ones` sum
round as the OpenBLAS kernel picked for the CPU does: under the Haswell and
Zen kernels both planner cases fail, under Prescott all four. Every `math`
function and `pow` call rounds as the C math library does.

The `gen-corpus` files are pinned too, at the default window and at a
longer one: their ego logs come from the batched bicycle integrator that
also builds the vocabulary maneuvers.
"""

import hashlib
from collections import Counter

import pytest

import drivegen.pipeline
from drivegen.cli import main
from drivegen.config import PipelineConfig
from drivegen.pipeline import export_dataset, run_generation
from drivegen.scenario import Pose2D, Trajectory, VehicleState
from drivegen.synth import corpus_config_for_count, generate_synthetic_corpus
from drivegen.vocab import PerturbationCandidate, synthesize_maneuvers

DIGESTS = {
    ("recovery", True): (
        "675ff41f264af1e08f510d422198d67b602e7b80c347bfe53eb6bc22d799f9c0",
        "81f474e2a643eef4becdc764b0f898f8cb57221c954cf54f21557cc16c6d82b7",
        "547af67f6204333b941344592e6090d69cb3745fd11e6c4e4d5033c177c4bbc6",
    ),
    ("recovery", False): (
        "2a4db7be8ef2042044c103b139a5f86c877bfa7b542f1d96d346f6c187323751",
        "618ffba2ab55dac5680bdd6701a56f30c2a5bcf1fbd2b18f322f3f130e523128",
        "94b397cdb0a40d765200a9ca499f1e48b169dfae640e3e1930de219210a7a094",
    ),
    ("planner", True): (
        "8ba6f5e02556d3d097110e25f849aa13d64195d75411cc0d64deb95c1055a537",
        "dc22c6ec6e06a68dd155c220bffcc0d87487554f217f22397227a5b5aa670f1e",
        "02cb6628d96cda4775227ef2720ff116ff253c2a2c172780950adee01fc50627",
    ),
    ("planner", False): (
        "b392c8ab2d3a6e81b1e1bf167d3ea7c925955ab8b2f5804f7112e23682138e8e",
        "5c10521a139c121f8cd06861cf6b0ed0421722f0008970b3c3f794bc3f5b53bf",
        "c7d798f53d7ac414fcfc57fdb0acd9698308a3f67eaf17c4069063eeb70bf727",
    ),
}


CORPUS_DIGESTS = {
    ("--count", "100", "--seed", "2026"):
        "1ec2c543866922f4d66e9ef0702ab492e4a109265c12cb56acdd093bd0d7332a",
    ("--count", "20", "--seed", "5", "--t-history", "30", "--t-horizon", "50"):
        "c083d513ef777d3a2089a141c68184ddc3c3012c013acfe43bd789d96920c753",
}


@pytest.mark.parametrize("flags", sorted(CORPUS_DIGESTS), ids=" ".join)
def test_corpus_bytes_are_pinned(tmp_path, flags):
    """The SHA-256 of the written scenario files, concatenated in name order."""
    assert main(["gen-corpus", *flags, "--out", str(tmp_path)]) == 0
    data = b"".join(p.read_bytes() for p in sorted(tmp_path.glob("*.json")))
    assert hashlib.sha256(data).hexdigest() == CORPUS_DIGESTS[flags]


@pytest.fixture(scope="module")
def corpus_and_vocab():
    corpus = generate_synthetic_corpus(corpus_config_for_count(5), seed=2026)
    return corpus, synthesize_maneuvers(64, 40, 0.1, seed=2026)


@pytest.mark.parametrize("expert, reactive", sorted(DIGESTS), ids=lambda v: str(v))
def test_exported_bytes_are_pinned(tmp_path, corpus_and_vocab, monkeypatch, expert, reactive):
    corpus, vocab = corpus_and_vocab
    config = PipelineConfig(master_seed=2026, expert_kind=expert, reactive=reactive)
    built = Counter()
    stage = [""]  # where the current scenario is: "" until its grid has returned
    for cls in (Pose2D, VehicleState, Trajectory, PerturbationCandidate):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            if _name != "PerturbationCandidate" or stage[0]:
                built[_name + stage[0]] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    enumerate_, grid = drivegen.pipeline.enumerate_perturbations, drivegen.pipeline.grid_sparsify

    def enumerated(*args):
        stage[0] = ""
        return enumerate_(*args)

    def gridded(*args):
        cands = grid(*args)
        stage[0] = " after the grid"
        return cands

    monkeypatch.setattr(drivegen.pipeline, "enumerate_perturbations", enumerated)
    monkeypatch.setattr(drivegen.pipeline, "grid_sparsify", gridded)
    samples, stats = run_generation(corpus, config, vocab=vocab)
    monkeypatch.undo()
    assert samples
    assert not built, f"the sample path built {dict(built)}"
    files = export_dataset(samples, tmp_path, stats, config, corpus_ids=[s.id for s in corpus])
    assert [f.name for f in files] == ["dataset.jsonl", "stats.csv", "manifest.json"]
    got = tuple(hashlib.sha256(f.read_bytes()).hexdigest() for f in files)
    assert got == DIGESTS[(expert, reactive)]
