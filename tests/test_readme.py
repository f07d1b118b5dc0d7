"""Each value that README's two quick-tour blocks state in their comments."""
from pilat import (
    ContinuumModel,
    Partition,
    PartitionShape,
    aleph,
    bottom,
    card_pow,
    complement_count_symbolic,
    enumerate_complements,
    evaluate,
    extend_to_maximal,
    fin,
    grieser_count,
    join,
    keyframe_chain,
    meet,
    non_ortho_witness,
    power_of_two,
    search_orthocomplementation,
    top,
    verify_chain,
)


def test_library_quick_tour():
    p = Partition.parse("0 1|2 3", 4)
    q = Partition.parse("0 2|1 3", 4)
    assert p.blocks == ((0, 1), (2, 3))
    assert meet(p, q) == bottom(4)
    assert join(p, q) == top(4)
    complements = enumerate_complements(p)
    assert len(complements) == 6
    assert grieser_count(p) == 4 == sum(c.block_count == 3 for c in complements)
    chain = keyframe_chain(2)
    assert [str(c) for c in chain] == ["0|1|2|3", "0|1|2 3", "0 1|2 3", "0 1 2 3"]
    assert verify_chain(chain).is_maximal is True
    ends = [bottom(4), top(4)]
    assert verify_chain(extend_to_maximal(ends)).is_maximal
    assert extend_to_maximal(ends) == extend_to_maximal(ends)
    # the map lists Pi_2 in RGS order: top first
    assert list(search_orthocomplementation(2).items()) == [(top(2), bottom(2)),
                                                            (bottom(2), top(2))]
    assert search_orthocomplementation(4) is None
    assert non_ortho_witness(12).atom_count < non_ortho_witness(12).coatom_count


def test_symbolic_quick_tour():
    assert card_pow(aleph(0), aleph(0)) == aleph(1)
    model = ContinuumModel(continuum={1: 3, 2: 3})
    assert power_of_two(aleph(1), model) == power_of_two(aleph(2), model) == aleph(3)
    assert card_pow(aleph(2), aleph(1), model) == aleph(3)
    assert str(power_of_two(aleph(0), model)) == "interval[aleph(1), aleph(3)]"
    shape = PartitionShape(kappa=aleph(0), full_blocks=1, residue=fin(3))
    assert complement_count_symbolic(shape) == aleph(0)
    assert evaluate("complements(shape(full=1, kappa=aleph(0), lambda=fin(3)))") == aleph(0)
