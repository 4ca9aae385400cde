"""The rewrite pin: every program the IR rewrites generate, by digest.

Each cell is one benchmark under one rewriting mode: the ``cdpa`` and
``cons`` dynopt pipelines (:func:`repro.isa.dynopt.transform_kernels`)
and the two persistent-queue modes (``PersistentRuntime.transform``).
A cell's digest is the SHA-256 of every kernel the rewrite returns, in
order: its name, its finalized assembly, and its shared and local
words.  A refactor of the rewrites must leave all 64 alone; a change
that means to move a generated program names the cells that moved and
refreshes :data:`PINNED` in the same commit.

The kernels do not depend on the dataset, so the census builds them at
scale 0.1 (scale 1 gives the same digests).
"""

import hashlib

import pytest

from repro import Device, ExecutionMode
from repro.isa.dynopt import transform_kernels
from repro.runtime.persistent import PersistentRuntime
from repro.workloads import benchmark_names, get_benchmark

REWRITES = (
    ExecutionMode.CDP_AGG,
    ExecutionMode.CONSOLIDATED,
    ExecutionMode.PERSISTENT,
    ExecutionMode.PERSISTENT_ASYNC,
)


def rewritten_kernels(name: str, mode: ExecutionMode):
    """The kernel set ``Workload._execute`` registers in ``mode``."""
    kernels = get_benchmark(name, mode, scale=0.1).build_kernels()
    if mode.compiler_optimized:
        return transform_kernels(kernels, mode)
    with Device(mode=mode) as device:
        runtime = PersistentRuntime(
            device, async_=mode is ExecutionMode.PERSISTENT_ASYNC
        )
        return runtime.transform(kernels)


def cell_digest(name: str, mode: ExecutionMode) -> str:
    digest = hashlib.sha256()
    for func in rewritten_kernels(name, mode):
        digest.update(
            f"{func.name}\n{func.program.to_assembly()}\n"
            f"{func.shared_words} {func.local_words}\n".encode()
        )
    return digest.hexdigest()


PINNED = {
    ("amr", "cdpa"):
        "6dca31483e66ecf9403c82c3f9bc3f3b7f4ce157636b061e4f78619dfa843457",
    ("amr", "cons"):
        "d771ee728d998351c5078f01575bc7934d0a71828bf8ea1ef6ba06ac84897fe1",
    ("amr", "persistent"):
        "6c35c849cf48c15c9cc4eea91c7bedf425b2eb6d7d9896db938f5e6728f98da0",
    ("amr", "persistent-async"):
        "f638e4807a842cd531ae90029fee6e3c55349f55ac8b70c5b6691e74bc3311b1",
    ("bfs_cage15", "cdpa"):
        "1cdb39d44f82ac569205cb1f259c6e43380e4f0dd398a8818c2b3e899c21996d",
    ("bfs_cage15", "cons"):
        "b0dfadefd0e751292bc1cedf428eaa7193ce807e16fac94b756f3101461bd0fd",
    ("bfs_cage15", "persistent"):
        "bcf349dfccc254b9b6d2589b289e076943eb3ebef4f72ef104a995d37c029b88",
    ("bfs_cage15", "persistent-async"):
        "dab7379fe7ab6ddc055bbdda5624767dedf9b5d80dd267256b2b308e76f90fbd",
    ("bfs_citation", "cdpa"):
        "1cdb39d44f82ac569205cb1f259c6e43380e4f0dd398a8818c2b3e899c21996d",
    ("bfs_citation", "cons"):
        "b0dfadefd0e751292bc1cedf428eaa7193ce807e16fac94b756f3101461bd0fd",
    ("bfs_citation", "persistent"):
        "bcf349dfccc254b9b6d2589b289e076943eb3ebef4f72ef104a995d37c029b88",
    ("bfs_citation", "persistent-async"):
        "dab7379fe7ab6ddc055bbdda5624767dedf9b5d80dd267256b2b308e76f90fbd",
    ("bfs_usa_road", "cdpa"):
        "1cdb39d44f82ac569205cb1f259c6e43380e4f0dd398a8818c2b3e899c21996d",
    ("bfs_usa_road", "cons"):
        "b0dfadefd0e751292bc1cedf428eaa7193ce807e16fac94b756f3101461bd0fd",
    ("bfs_usa_road", "persistent"):
        "bcf349dfccc254b9b6d2589b289e076943eb3ebef4f72ef104a995d37c029b88",
    ("bfs_usa_road", "persistent-async"):
        "dab7379fe7ab6ddc055bbdda5624767dedf9b5d80dd267256b2b308e76f90fbd",
    ("bht", "cdpa"):
        "f75134203898aef0b0ed8e54881510458dc00bed6241cbd80474c6a83a7531bf",
    ("bht", "cons"):
        "dd4d89b7538f0b55c23f39a6e15cf0d8bb1e378eeecc52b0a29a6ca4891a8c08",
    ("bht", "persistent"):
        "f52a61fa9c4a1c9ecbe76d3bbc28129f7b0ee3fc80c8e3f948cb9a3de6ea145a",
    ("bht", "persistent-async"):
        "a17c252957d5433e0a1b322b48a7e6ad1158e435bfeb3fa11856131a4f57824c",
    ("clr_cage15", "cdpa"):
        "d9a680e7c6f743cee9a11e2a0629aa0051d6154fbc5d5f64e3b3712e598ef3ed",
    ("clr_cage15", "cons"):
        "d0563754e8f1c2a867b1d2233e2d9b3e86410f81f0ab42a1b9f79ae447ae5bae",
    ("clr_cage15", "persistent"):
        "ac289633c663b2af66d7f878251cd2418d45948ff7fefe30cf8cfdf71f9ad602",
    ("clr_cage15", "persistent-async"):
        "09da12000282e6cb35d79e3ac83f549e76ecd7f4850c98088e25b46acb93c35c",
    ("clr_citation", "cdpa"):
        "d9a680e7c6f743cee9a11e2a0629aa0051d6154fbc5d5f64e3b3712e598ef3ed",
    ("clr_citation", "cons"):
        "d0563754e8f1c2a867b1d2233e2d9b3e86410f81f0ab42a1b9f79ae447ae5bae",
    ("clr_citation", "persistent"):
        "ac289633c663b2af66d7f878251cd2418d45948ff7fefe30cf8cfdf71f9ad602",
    ("clr_citation", "persistent-async"):
        "09da12000282e6cb35d79e3ac83f549e76ecd7f4850c98088e25b46acb93c35c",
    ("clr_graph500", "cdpa"):
        "d9a680e7c6f743cee9a11e2a0629aa0051d6154fbc5d5f64e3b3712e598ef3ed",
    ("clr_graph500", "cons"):
        "d0563754e8f1c2a867b1d2233e2d9b3e86410f81f0ab42a1b9f79ae447ae5bae",
    ("clr_graph500", "persistent"):
        "ac289633c663b2af66d7f878251cd2418d45948ff7fefe30cf8cfdf71f9ad602",
    ("clr_graph500", "persistent-async"):
        "09da12000282e6cb35d79e3ac83f549e76ecd7f4850c98088e25b46acb93c35c",
    ("join_gaussian", "cdpa"):
        "66e013fabea2983bb9e4d77992ae4b5747fad93e770a3479689f73c52610f4d7",
    ("join_gaussian", "cons"):
        "4b8576c8d9d91f8a7b41c733ee82a1e4f286318934fdd689a59572a2057661b0",
    ("join_gaussian", "persistent"):
        "645f202d289c2e7fbacfdc78b5e7cf70be37f8cf067b74c43abc1e911b82da28",
    ("join_gaussian", "persistent-async"):
        "37ef820f8a3648ba68b952a6908d29eb109a8d78ac93a8381776ceff786fc37c",
    ("join_uniform", "cdpa"):
        "66e013fabea2983bb9e4d77992ae4b5747fad93e770a3479689f73c52610f4d7",
    ("join_uniform", "cons"):
        "4b8576c8d9d91f8a7b41c733ee82a1e4f286318934fdd689a59572a2057661b0",
    ("join_uniform", "persistent"):
        "645f202d289c2e7fbacfdc78b5e7cf70be37f8cf067b74c43abc1e911b82da28",
    ("join_uniform", "persistent-async"):
        "37ef820f8a3648ba68b952a6908d29eb109a8d78ac93a8381776ceff786fc37c",
    ("pre_movielens", "cdpa"):
        "02138ac12eddf56941d299dbc75a23ec108e3579c6892fc9da7704b20688276c",
    ("pre_movielens", "cons"):
        "2ddf04d3f4754deb5f8165c30d245190ab1490a261223bae98a894c874e8fdfd",
    ("pre_movielens", "persistent"):
        "1a3c0f51841306ae7ba0064bbd6d9f4fbd8ac45bbccb1dae85903bd6ab2d93dc",
    ("pre_movielens", "persistent-async"):
        "ee6815fc4e8a03bff9566a058e11c3dafff8001474c3d1a76579087960b24ada",
    ("regx_darpa", "cdpa"):
        "b4679a97018821f847a859daafa32fa61c9f8d00a7d737549ce43c30c64d9152",
    ("regx_darpa", "cons"):
        "fc3cac08acc02821423cb9d15fa1b7826f673709e4a7be982c02f1bfde759b36",
    ("regx_darpa", "persistent"):
        "6d92e7799a1ac3fe7f746b72fd806fdd899b82ec7d24c358324c3da57ef933b7",
    ("regx_darpa", "persistent-async"):
        "da97560135c2217873441d94adac5e3bd2f2362007b2fb103ac1325010acbd71",
    ("regx_string", "cdpa"):
        "e6464115660c555c34cd42f0adb35e2c1df45507bab4a8c8e00deba0aa510a25",
    ("regx_string", "cons"):
        "75f820679328c25c5ee1fcd5d651f4b952049fcdf57b1772b2b96c3cccee0272",
    ("regx_string", "persistent"):
        "965ed291db07c568f620bd01397ac63c8d60d6668f87554eb5b22e4a2a8e4434",
    ("regx_string", "persistent-async"):
        "48667503e2e789665b9f27f71663d0005e820aedc18b9f1a60f1f2dd8867cc4a",
    ("sssp_cage15", "cdpa"):
        "47f1303a0b8d1542b85caef5f58f2082a9108a302d6ba86ca00a4574f50ae076",
    ("sssp_cage15", "cons"):
        "090c6fa9efd90118ea1a2e8ecb8a4f7ff0f2f86d8735b53eaaca4340a5a90974",
    ("sssp_cage15", "persistent"):
        "a6f0a112c1c7dd0b8d5fac46c254d41efe485a053b677451ecf32763e0470465",
    ("sssp_cage15", "persistent-async"):
        "0eaef397760a339a4b6b34523a3b9f4d1e402eb333ee99b4a1def7fbf8a27007",
    ("sssp_citation", "cdpa"):
        "47f1303a0b8d1542b85caef5f58f2082a9108a302d6ba86ca00a4574f50ae076",
    ("sssp_citation", "cons"):
        "090c6fa9efd90118ea1a2e8ecb8a4f7ff0f2f86d8735b53eaaca4340a5a90974",
    ("sssp_citation", "persistent"):
        "a6f0a112c1c7dd0b8d5fac46c254d41efe485a053b677451ecf32763e0470465",
    ("sssp_citation", "persistent-async"):
        "0eaef397760a339a4b6b34523a3b9f4d1e402eb333ee99b4a1def7fbf8a27007",
    ("sssp_flight", "cdpa"):
        "47f1303a0b8d1542b85caef5f58f2082a9108a302d6ba86ca00a4574f50ae076",
    ("sssp_flight", "cons"):
        "090c6fa9efd90118ea1a2e8ecb8a4f7ff0f2f86d8735b53eaaca4340a5a90974",
    ("sssp_flight", "persistent"):
        "a6f0a112c1c7dd0b8d5fac46c254d41efe485a053b677451ecf32763e0470465",
    ("sssp_flight", "persistent-async"):
        "0eaef397760a339a4b6b34523a3b9f4d1e402eb333ee99b4a1def7fbf8a27007",
}


def test_the_census_covers_every_benchmark_and_rewrite():
    assert set(PINNED) == {
        (name, mode.value) for name in benchmark_names() for mode in REWRITES
    }


@pytest.mark.parametrize("name", benchmark_names())
def test_generated_programs_are_pinned(name):
    moved = [
        mode.value
        for mode in REWRITES
        if cell_digest(name, mode) != PINNED[name, mode.value]
    ]
    assert moved == [], f"{name}: rewritten programs moved in {moved}"
