"""Pinned seeded outputs of the per-node engines.

One sha256 per (engine, cell) over three seeds of
``(steps, effective_steps, last_change_step, last_output_change_step,
stop_reason, node states, sorted active edges)``.  The distributional
gates (KS tests) only check that engines sample the same law; these
digests check that a refactor of an engine's loop or fault handling
keeps every seeded run bit-identical — same RNG draws, same order.
For one cell per engine the recorded :class:`~repro.core.trace.Trace`
events and the bus's meta/fault frames (census in insertion order) are
hashed too, so the publishing path is pinned as well.

The expected values are fixed: a mismatch means seeded outputs changed,
which needs a deliberate decision, not a re-pin.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.scenario import Scenario, make_scenario_engine
from repro.core.trace import BusSubscriber, Trace, TraceBus
from repro.protocols import FTGlobalLine, SimpleGlobalLine
from repro.protocols.registry import instantiate

SEEDS = (0, 1, 2)
N = 8

CRASH = "crash:count=2,at=50"

#: name -> (protocol factory, scenario, max_steps, run options)
CELLS = {
    "plain": (SimpleGlobalLine, Scenario(), 200_000, {}),
    "crash": (FTGlobalLine, Scenario(faults=(CRASH,)), 200_000, {}),
    "recover": (
        FTGlobalLine,
        Scenario(faults=(CRASH, "recover:count=2,at=200")),
        200_000, {},
    ),
    "edge-drop": (
        FTGlobalLine, Scenario(faults=("edge-drop:rate=0.02",)), 20_000, {},
    ),
    "edge-rate": (
        FTGlobalLine, Scenario(faults=("edge-rate:rate=0.0001",)), 20_000, {},
    ),
    "byzantine": (
        FTGlobalLine,
        Scenario(faults=("byzantine:count=2,rate=0.001,lie=0.5",)),
        20_000, {},
    ),
    "arrive": (
        SimpleGlobalLine, Scenario(faults=("arrive:count=3,at=100",)),
        200_000, {},
    ),
    "interval": (
        FTGlobalLine, Scenario(faults=(CRASH,)), 200_000, {"check_interval": 3},
    ),
    "round-robin": (
        SimpleGlobalLine,
        Scenario(scheduler="round-robin", faults=(CRASH,)),
        200_000, {},
    ),
    # At n=8 the two rates above rarely fire before the line settles;
    # these hotter variants make every seed's run take fault actions.
    "edge-rate-hot": (
        FTGlobalLine, Scenario(faults=("edge-rate:rate=0.005",)), 20_000, {},
    ),
    "byzantine-hot": (
        FTGlobalLine,
        Scenario(faults=("byzantine:count=2,rate=0.05,lie=0.5",)),
        20_000, {},
    ),
    "churn": (
        FTGlobalLine, Scenario(faults=("churn:rate=0.01",)), 20_000, {},
    ),
    # Budget exits: a step budget that cuts the run short, and an
    # effective-step budget (event-driven engines only).
    "step-budget": (SimpleGlobalLine, Scenario(faults=(CRASH,)), 120, {}),
    "eff-budget": (
        FTGlobalLine, Scenario(faults=(CRASH,)), None,
        {"max_effective_steps": 10},
    ),
}

#: The count engine below its leap threshold (it delegates to the
#: indexed path; n=8 is far below the default threshold).
ENGINE_NAMES = ("sequential", "agitated", "indexed", "count")

#: The cell whose trace and bus frames are hashed, per engine.
TRACED_CELL = "crash"


#: Larger-population cells for the indexed engine: at n=8 the census
#: buckets are tiny and few states are present, so bucket order and
#: class order barely matter.  Protocol spec x fault set at n=40 over
#: two seeds, capped at 200k steps and 1500 effective interactions.
LARGE_N = 40
LARGE_SEEDS = (0, 1)
LARGE_BUDGET = 200_000
LARGE_EFFECTIVE = 1500
LARGE_PROTOCOLS = (
    "fast-global-line", "global-star", "c-cliques", "2rc", "k-regular-connected",
)
LARGE_FAULTS = {
    "none": (),
    "crash": ("crash:count=3,at=500",),
    "arrive": ("arrive:count=4,at=300",),
    "byzantine": ("byzantine:count=2,rate=0.01,lie=0.5",),
}


def _supported(engine: str, cell: str) -> bool:
    from repro.core.simulator import ENGINES

    factory, scenario, budget, options = CELLS[cell]
    if engine == "sequential" and budget is None:
        return False
    return ENGINES[engine].supports(scenario)


class _FrameLog(BusSubscriber):
    def __init__(self) -> None:
        self.frames: list = []

    def on_run_started(self, meta) -> None:
        self.frames.append((
            "meta", meta.protocol, meta.n, meta.engine,
            [(repr(s), c) for s, c in meta.census.items()], meta.n_edges,
        ))

    def on_fault(self, frame) -> None:
        self.frames.append((
            "fault", frame.step, frame.kinds,
            [(repr(s), c) for s, c in frame.counts.items()], frame.n_edges,
        ))


def _outcome(result) -> tuple:
    cfg = result.config
    return (
        result.steps,
        result.effective_steps,
        result.last_change_step,
        result.last_output_change_step,
        result.stop_reason,
        [repr(s) for s in cfg.states()],
        sorted(cfg.active_edges()),
    )


def _sha(payload) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def cell_digest(engine: str, cell: str, traced: bool = False) -> str:
    factory, scenario, budget, cell_options = CELLS[cell]
    payload = []
    for seed in SEEDS:
        sim = make_scenario_engine(engine, seed, scenario)
        options = dict(cell_options)
        if traced:
            log = _FrameLog()
            bus = TraceBus()
            bus.subscribe(log)
            options.update(trace=Trace(), bus=bus)
        result = sim.run(factory(), N, budget, **options)
        row = _outcome(result)
        if traced:
            events = [
                (e.step, e.u, e.v, repr(e.u_before), repr(e.u_after),
                 repr(e.v_before), repr(e.v_after), e.edge_before,
                 e.edge_after)
                for e in result.trace.events
            ]
            row = (row, events, log.frames)
        payload.append(row)
    return _sha(payload)


def large_cell_digest(protocol: str, faults: str) -> str:
    scenario = Scenario(faults=LARGE_FAULTS[faults])
    payload = []
    for seed in LARGE_SEEDS:
        sim = make_scenario_engine("indexed", seed, scenario)
        result = sim.run(
            instantiate(protocol), LARGE_N, LARGE_BUDGET,
            max_effective_steps=LARGE_EFFECTIVE,
        )
        payload.append(_outcome(result))
    return _sha(payload)


EXPECTED: dict[tuple[str, str], str] = {
    ("sequential", "plain"): "665c900b34c668089a22fc44bd9731cf5fa38c4ade3976deee323490503683f0",
    ("sequential", "crash"): "e8abfd1bbafacca07472b88ab2e4fb5cfd2051d072ca8edabf55ca4f1918739f",
    ("sequential", "recover"): "38726bfcbe1def109ca81aed3649f209ddb2b91f0b4ab4aa6769232063af803f",
    ("sequential", "edge-drop"): "47a62aa9c0bbf5c7135b6a2b7a137f616a1a286756605776c8689b8ae1dccc52",
    ("sequential", "edge-rate"): "665c900b34c668089a22fc44bd9731cf5fa38c4ade3976deee323490503683f0",
    ("sequential", "byzantine"): "665c900b34c668089a22fc44bd9731cf5fa38c4ade3976deee323490503683f0",
    ("sequential", "arrive"): "bf9414840d9f4a41f13b9a8abcf17f3596183ff073d7d24d13f7c8e5f6752597",
    ("sequential", "interval"): "fa77ce320140534464c289f2ddddfbc793aea9eba87f575a897ce9bf41f4279e",
    ("sequential", "round-robin"): "9af50824c40764ccab286dc9e433f350220be5ed9463f2b5e4f4ba9338c65714",
    ("sequential", "edge-rate-hot"): "a0b2c18c71c9033a89771d6db5a4026c1dc106d87f8d7efc85aaf6c5ef11c579",
    ("sequential", "byzantine-hot"): "fd0239f5117ee7396ac767ece6a7c53fe21693e100960cf018d6d849223b21f8",
    ("sequential", "churn"): "073a035d0e1994389c29a38b5b55714e9b2278be17a01e498fba741681de6382",
    ("sequential", "step-budget"): "1b3e09917ed5e1f8ff5efa468d73d9e4d4cff66fcb1ab5539d7372a95378c6db",
    ("agitated", "plain"): "2133df685ded501d8d5c1e6c56f48e0cdefdf5b7862e54a65003de2ecaaa454f",
    ("agitated", "crash"): "e5b3c11c56089f314f91d7dfd708be1119caec993d5b3fab34c5045743e91f76",
    ("agitated", "recover"): "d5c9d43e13915950e66b0a6d1e42a13709e3de9dd137ee99d8b6b58778743628",
    ("agitated", "edge-drop"): "9907fc86d419c333c1289fc662af45ee05334377706afda973860d4920da47d4",
    ("agitated", "edge-rate"): "2133df685ded501d8d5c1e6c56f48e0cdefdf5b7862e54a65003de2ecaaa454f",
    ("agitated", "byzantine"): "2133df685ded501d8d5c1e6c56f48e0cdefdf5b7862e54a65003de2ecaaa454f",
    ("agitated", "arrive"): "3f63d0e7284c890f28f92c27faf0a90e7fe70f821c5b1ad10b7ea2ab0056d01b",
    ("agitated", "interval"): "48d13e3108cbfaf9c86c52ea394bc7faac42a2934f7d82beb324a34f2ad156cf",
    ("agitated", "edge-rate-hot"): "062c4e1e5652916a62717c916f5798727ef1047521ed874efaf36c8bdaa29b87",
    ("agitated", "byzantine-hot"): "ab4f0225231e4e02dfa614d129f1b51c965b1f17030e64b6cdabb7bc155d5288",
    ("agitated", "churn"): "592b6cfdffbbdac0e50946b63149579dc4422150dd44fd42c80426507774a47c",
    ("agitated", "step-budget"): "c6e76befe07572e1d50c743df50063890ffba9e3d62d74bb530a5b728dd994dd",
    ("agitated", "eff-budget"): "d025231d9828002269d7b6a5e9ba14d86310b08f43781c8218c0e8572bce56cd",
    ("indexed", "plain"): "0330f15511e715b20cfb142af3da99b986f0a25672deff6784fd9e3993c1ec8c",
    ("indexed", "crash"): "01a36e0f2561b900700d03214342a634b6f8d623a58ea65b24c702bbce962126",
    ("indexed", "recover"): "98b740f42c8002624f4ec33693cc5f7e83f35b9602d99b805c99afe72f13d600",
    ("indexed", "edge-drop"): "263c6c63798cd075f1ded368c3c6f713d6331d55a99bc16413dfb4ccbcbdf5a4",
    ("indexed", "edge-rate"): "cc496c0ddc04121439af3d0506c94c1465af0a51d91275eef502e066c5641e58",
    ("indexed", "byzantine"): "0330f15511e715b20cfb142af3da99b986f0a25672deff6784fd9e3993c1ec8c",
    ("indexed", "arrive"): "581e56a1e6b627e5282b44121338d04511b88e51394b10b77b1fb56cd3d30e50",
    ("indexed", "interval"): "93aea97e16d5611b634c6274681393577f5469740e53b44b5273bed5d1668433",
    ("indexed", "edge-rate-hot"): "17354552f502e8887d41e63050dc05696533fa16e12cc38354f75f7ee7c119ea",
    ("indexed", "byzantine-hot"): "b32e2d0651e3ca9e7d28d64d3955b6177db31e16fb00c1503e301c45306da8cb",
    ("indexed", "churn"): "7b2909c6ced2c05f5f50ec64c78ed8d8f1d4fea9bc733a20542134a3df4bc303",
    ("indexed", "step-budget"): "1099b31fb2c6f2cf50a8bbc3adf559fca3822c488b6996612b6f935fa9e1a866",
    ("indexed", "eff-budget"): "a46352bf458122dfd59ee586dbf09c0c529c2364a3e443aa94b39a00e4449a1e",
    ("count", "plain"): "0330f15511e715b20cfb142af3da99b986f0a25672deff6784fd9e3993c1ec8c",
    ("count", "crash"): "01a36e0f2561b900700d03214342a634b6f8d623a58ea65b24c702bbce962126",
    ("count", "recover"): "98b740f42c8002624f4ec33693cc5f7e83f35b9602d99b805c99afe72f13d600",
    ("count", "edge-drop"): "263c6c63798cd075f1ded368c3c6f713d6331d55a99bc16413dfb4ccbcbdf5a4",
    ("count", "edge-rate"): "cc496c0ddc04121439af3d0506c94c1465af0a51d91275eef502e066c5641e58",
    ("count", "arrive"): "581e56a1e6b627e5282b44121338d04511b88e51394b10b77b1fb56cd3d30e50",
    ("count", "interval"): "93aea97e16d5611b634c6274681393577f5469740e53b44b5273bed5d1668433",
    ("count", "edge-rate-hot"): "17354552f502e8887d41e63050dc05696533fa16e12cc38354f75f7ee7c119ea",
    ("count", "churn"): "7b2909c6ced2c05f5f50ec64c78ed8d8f1d4fea9bc733a20542134a3df4bc303",
    ("count", "step-budget"): "1099b31fb2c6f2cf50a8bbc3adf559fca3822c488b6996612b6f935fa9e1a866",
    ("count", "eff-budget"): "a46352bf458122dfd59ee586dbf09c0c529c2364a3e443aa94b39a00e4449a1e",
}

EXPECTED_TRACED: dict[str, str] = {
    "sequential": "22d97da53097229d41aef5624f692996c01988e2a52af2e53f95614181a44322",
    "agitated": "adc472d2bcf9857489fac3f921d8ef77944b260a63a4eacd89e9e7ef5ae64db2",
    "indexed": "b878bcee7b55b6e470537bc9eaf865266e41ae49f9955356c10630431ebb4b96",
    "count": "f490e3d63aea8e0c900f22e6912db1947b32481bedb456fedc8972383925a655",
}

#: Indexed engine, (protocol spec, fault set) at LARGE_N.
EXPECTED_LARGE: dict[tuple[str, str], str] = {
    ("fast-global-line", "none"): "22911c2629a22418570c7351057a87d2bfb3494ce34da795772a20db6af45b88",
    ("fast-global-line", "crash"): "1a381dd9ca515619be01ff19fe9326aa9d74917487f9ea4133009f6c4d725963",
    ("fast-global-line", "arrive"): "747a8aeae5bfd2e90f227175be6c0a56d09064561f1d8472c7f717b8b6e105d8",
    ("fast-global-line", "byzantine"): "1d40b295f41b1320cb8cac082e387084a4a69edd2fd7354aadc75087b8863a20",
    ("global-star", "none"): "78943c9f6062baa9161b12494af134bf7c578b9ea6a5c3209c8d191d19da8437",
    ("global-star", "crash"): "997de1bf3f3fdc99259c2fb61471fd5027b25d9fbde8335d09aa09a334c6f207",
    ("global-star", "arrive"): "d1928f3389aebb603ad4e68e9cfd55806211481465988a1f7c9403b66e3e8106",
    ("global-star", "byzantine"): "dab7a0f4c78b6184e85a4bd8bf799c1e3db66277823bc14cc39503faa39cb152",
    ("c-cliques", "none"): "da5571f0d023839b34b72521ee9ff9cf1c507b915c76988d3804cf06620499c8",
    ("c-cliques", "crash"): "ada4e5c0fe8aac8beb8f91aa3fdeb0e11c112631f6373df1257f1a80c6ce9622",
    ("c-cliques", "arrive"): "ed4ea68405fdf3373b0b29e36f8e1dae8f3507d3c3acb7369a83d7ca4618034e",
    ("c-cliques", "byzantine"): "bbd0f82d9a6eee6f2efba39d4d51e9602a30ab343c6c77d367cdd0c4509e6f68",
    ("2rc", "none"): "9aa71102c4e210ddfe8d0d4e2ca9bc833b095f928927e416876d98767a6029df",
    ("2rc", "crash"): "a62802bb29df7c60d6da95f6266e22ba40f04f782b4f227c8da630333d439f95",
    ("2rc", "arrive"): "6d1a0a48ac98321b6d98a431fe6abe968a4ec1a780b925ec0692979c79277d34",
    ("2rc", "byzantine"): "88db872cc57a9fbba5c7d036dfb4781474910094543c58f23eb57a1ec554db33",
    ("k-regular-connected", "none"): "820ebf1893dc90f3ef124989471d1c7fa0b0bfec929ef08d7c1a80983a7196c7",
    ("k-regular-connected", "crash"): "95403ed4256488ec7ab38f274d470ed3703be9aabbef583b2adc8f7f79d77b56",
    ("k-regular-connected", "arrive"): "7f572411d0ef13ffeefb44b3fea7e204f918f982819fa56f464b103c8251e72b",
    ("k-regular-connected", "byzantine"): "6b1abcc3a6a5546ece9f791fde42337b86197511ffe1e2da8e5d23d9d382cb83",
}


@pytest.mark.parametrize("engine,cell", sorted(EXPECTED))
def test_engine_cell_digest(engine, cell):
    assert cell_digest(engine, cell) == EXPECTED[(engine, cell)]


@pytest.mark.parametrize("engine", sorted(EXPECTED_TRACED))
def test_engine_trace_digest(engine):
    assert cell_digest(engine, TRACED_CELL, traced=True) == EXPECTED_TRACED[engine]


@pytest.mark.parametrize("protocol,faults", sorted(EXPECTED_LARGE))
def test_indexed_large_cell_digest(protocol, faults):
    assert large_cell_digest(protocol, faults) == EXPECTED_LARGE[(protocol, faults)]


def test_every_supported_cell_is_pinned():
    expected = {
        (engine, cell)
        for engine in ENGINE_NAMES
        for cell in CELLS
        if _supported(engine, cell)
    }
    assert set(EXPECTED) == expected
    assert set(EXPECTED_TRACED) == set(ENGINE_NAMES)
    assert set(EXPECTED_LARGE) == {
        (protocol, faults) for protocol in LARGE_PROTOCOLS for faults in LARGE_FAULTS
    }


if __name__ == "__main__":
    # Print the table in the layout above (used once, to pin it).
    for engine in ENGINE_NAMES:
        for cell in CELLS:
            if _supported(engine, cell):
                print(f'    ("{engine}", "{cell}"): "{cell_digest(engine, cell)}",')
    for engine in ENGINE_NAMES:
        print(f'    "{engine}": "{cell_digest(engine, TRACED_CELL, traced=True)}",')
    for protocol in LARGE_PROTOCOLS:
        for faults in LARGE_FAULTS:
            print(f'    ("{protocol}", "{faults}"): "{large_cell_digest(protocol, faults)}",')
