"""The incremental classifiers against from-scratch reference loops.

``NearestCentroidClassifier`` keeps its centroid matrix across retrains
and ``DeduplicationEngine`` keeps a running centroid matrix and measures
every cluster in one row-wise norm. The references below recompute
everything from the raw observations with the scalar expressions, so a
property failure means the incremental state drifted from the model it
caches.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.learning import DeduplicationEngine, NearestCentroidClassifier

DIM = 4

coordinates = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
vectors = st.lists(coordinates, min_size=DIM, max_size=DIM).map(np.array)


def reference_predict(observations, embedding, accept_radius):
    """Predict from a matrix rebuilt from every observation so far."""
    sums, counts = {}, {}
    for identity, vector in observations:
        if identity in sums:
            sums[identity] = sums[identity] + vector
            counts[identity] += 1
        else:
            sums[identity] = vector.copy()
            counts[identity] = 1
    if not sums:
        return None
    ids = sorted(sums)
    matrix = np.stack([sums[i] / counts[i] for i in ids])
    distances = np.linalg.norm(matrix - embedding, axis=1)
    best = int(np.argmin(distances))
    return None if distances[best] > accept_radius else ids[best]


def reference_dedup(embeddings, merge_radius):
    """The greedy first-match loop with one scalar norm per cluster."""
    sums, counts, assigned = [], [], []
    for embedding in embeddings:
        for index in range(len(sums)):
            centroid = sums[index] / counts[index]
            if float(np.linalg.norm(centroid - embedding)) <= merge_radius:
                sums[index] = sums[index] + embedding
                counts[index] += 1
                assigned.append(index)
                break
        else:
            sums.append(embedding.copy())
            counts.append(1)
            assigned.append(len(sums) - 1)
    return assigned


class TestIncrementalPredict:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(ops=st.lists(st.one_of(
        st.tuples(st.just("add"), st.integers(0, 5), vectors),
        st.tuples(st.just("predict"), vectors)), max_size=40),
        accept_radius=st.floats(0.1, 3.0))
    def test_predict_matches_rebuild(self, ops, accept_radius):
        model = NearestCentroidClassifier(DIM, accept_radius)
        observations = []
        for op in ops:
            if op[0] == "add":
                model.add_observation(op[1], op[2])
                observations.append((op[1], op[2]))
            else:
                assert model.predict(op[1]) == reference_predict(
                    observations, op[1], accept_radius)
        for identity, _ in observations:
            expected = reference_predict(
                observations, model.centroid_estimate(identity),
                accept_radius)
            assert model.predict(model.centroid_estimate(identity)) == \
                expected


@st.composite
def near_radius_stream(draw):
    """Embeddings, many of them within ulps of ``merge_radius`` of an
    earlier one, so the row-wise norm and the scalar norm disagree on
    which side of the radius they fall."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    merge_radius = draw(st.floats(0.2, 1.5))
    embeddings = [rng.normal(size=16)]
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(["near", "near", "far", "axis"]))
        anchor = embeddings[draw(st.integers(0, len(embeddings) - 1))]
        if kind == "far":
            embeddings.append(rng.normal(size=16))
            continue
        if kind == "axis":
            direction = np.zeros(16)
            direction[draw(st.integers(0, 15))] = 1.0
        else:
            direction = rng.normal(size=16)
            direction /= np.linalg.norm(direction)
        step, ulps = merge_radius, draw(st.integers(-3, 3))
        for _ in range(abs(ulps)):
            step = np.nextafter(step, np.inf if ulps > 0 else -np.inf)
        embeddings.append(anchor + step * direction)
    return merge_radius, embeddings


class TestVectorizedDedup:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(stream=near_radius_stream())
    def test_matches_reference_greedy_loop(self, stream):
        merge_radius, embeddings = stream
        engine = DeduplicationEngine(merge_radius)
        got = [engine.add(embedding) for embedding in embeddings]
        assert got == reference_dedup(embeddings, merge_radius)
        assert engine.unique_count == max(got) + 1
        assert sum(engine.cluster_sizes()) == len(embeddings)

    def test_scalar_distance_decides_at_the_radius(self):
        """The row-wise and scalar norms differ in the last bit for many
        vectors; with the radius set to the scalar distance, joining must
        follow the scalar expression whichever way the row-wise one
        rounds."""
        rng = np.random.default_rng(1)
        decided = {"joined": 0, "founded": 0}
        for _ in range(200):
            first, second = rng.normal(size=16), rng.normal(size=16)
            scalar = float(np.linalg.norm(first - second))
            row_wise = float(np.linalg.norm(first[None, :] - second,
                                            axis=1)[0])
            if scalar == row_wise:
                continue
            for radius in (scalar, np.nextafter(scalar, -np.inf)):
                engine = DeduplicationEngine(radius)
                engine.add(first)
                joined = engine.add(second) == 0
                assert joined == (scalar <= radius)
                decided["joined" if joined else "founded"] += 1
        assert decided["joined"] and decided["founded"]

    def test_grows_past_initial_capacity(self):
        engine = DeduplicationEngine(merge_radius=0.5)
        points = [np.full(3, 10.0 * k) for k in range(40)]
        assert [engine.add(p) for p in points] == list(range(40))
        assert engine.add(points[17] + 0.1) == 17
        assert engine.cluster_sizes()[17] == 2

