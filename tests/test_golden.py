"""Byte-identity gate for the seeded reports.

Pins the exact JSON, skip count and margin convention of every suite, both
Schwarz-Pick equality runs, the three ceiling kinds and three distortion
searches (a disk automorphism, extremal 1,1 and the Cayley map) at seed 42.
A change that alters the draw order or the arithmetic must update GOLDEN on
purpose; print the names of the entries that differ, then the current
values, with

    PYTHONPATH=src python tests/test_golden.py
"""

import pprint

import pytest

from jmetric.domains import UnitDisk, UpperHalfPlane
from jmetric.maps import Blaschke, Extremal, Mobius
from jmetric.search import SearchConfig, estimate_lipschitz
from jmetric.verify import SUITE_NAMES, lipschitz_ceiling, run_schwarz_pick_equality, run_suite

SEED = 42


def _report_fields(report):
    return report.to_json(), report.skipped, report.margin_convention


def _cases():
    cases = {f"suite/{name}": (lambda name=name: run_suite(name, 5000, SEED)) for name in SUITE_NAMES}
    for kind in ("halfplane", "disk"):
        cases[f"equality/{kind}"] = lambda kind=kind: run_schwarz_pick_equality(kind, 5000, SEED)
    for kind in ("halfplane", "disk", "mobius-images"):
        cases[f"ceiling/{kind}"] = lambda kind=kind: lipschitz_ceiling(kind, 4, 500, SEED)
        # 10,000 pairs per map span three scoring blocks of 4,096.
        cases[f"ceiling/{kind}/10000"] = lambda kind=kind: lipschitz_ceiling(kind, 4, 10_000, SEED)
    return cases


# The half-plane searches cover the log-spaced height grid; the Cayley map is
# not a self-map, so it is searched against its computed image domain.
_SEARCHES = {
    "search/automorphism": (UnitDisk(), Blaschke(0.0, (0.5,))),
    "search/extremal": (UpperHalfPlane(), Extremal(1.0, 1.0)),
    "search/cayley": (UpperHalfPlane(), Mobius(1.0, -1j, 1.0, 1j)),
}


def _search_json(name):
    src, m = _SEARCHES[name]
    return estimate_lipschitz(src, m, SearchConfig(grid_per_axis=8, seed=SEED)).to_json()


def capture() -> dict:
    out = {name: _report_fields(run()) for name, run in _cases().items()}
    out.update((name, _search_json(name)) for name in _SEARCHES)
    return out


# Captured at seed 42 before the suite engine became one table-driven fold; the
# ceiling/* entries after ceiling pairs came to be drawn by vectorized
# rejection from each chunk's generator; search/extremal and search/cayley
# while the search grid still scored its pairs one at a time.
GOLDEN = {'ceiling/disk': ('{"suite":"lipschitz-ceiling-disk","samples":2000,"seed":42,"passed":true,"worst_margin":0.35851422238054464,"worst_witness":{"map":"blaschke:5.004517901703075;[0.5466269528224328+0.46118297147188697i]","src":"unitdisk","dst":"unitdisk","z":"0.4676181265553023+0.2536503295530257i","w":"-0.3071069610477659-0.46670108755699724i"}}',
                  0,
                  'absolute'),
 'ceiling/disk/10000': ('{"suite":"lipschitz-ceiling-disk","samples":40000,"seed":42,"passed":true,"worst_margin":0.31488174503140587,"worst_witness":{"map":"blaschke:5.004517901703075;[0.5466269528224328+0.46118297147188697i]","src":"unitdisk","dst":"unitdisk","z":"-0.03111924608068284-0.1571316160635845i","w":"0.1304411764412825+0.08689499407259715i"}}',
                        0,
                        'absolute'),
 'ceiling/halfplane': ('{"suite":"lipschitz-ceiling-halfplane","samples":2000,"seed":42,"passed":true,"worst_margin":0.12921245677058035,"worst_witness":{"map":"mobius:0.13685239816313421,1.3749903629917517,-0.6355353615982691,-0.15619346756596597","src":"upperhalfplane","dst":"upperhalfplane","z":"-0.048570252868195496+0.5856340597172207i","w":"8.107868474403944+0.4581211638848373i"}}',
                       0,
                       'absolute'),
 'ceiling/halfplane/10000': ('{"suite":"lipschitz-ceiling-halfplane","samples":40000,"seed":42,"passed":true,"worst_margin":0.09804189805356223,"worst_witness":{"map":"mobius:-1.4337707048834707,-0.9196278598090122,1.496151458691363,-1.3193418930761398","src":"upperhalfplane","dst":"upperhalfplane","z":"0.9874440846755981+0.9673826128427875i","w":"-8.384509489455407+1.0023023140526761i"}}',
                             0,
                             'absolute'),
 'ceiling/mobius-images': ('{"suite":"lipschitz-ceiling-mobius-images","samples":2000,"seed":42,"passed":true,"worst_margin":0.2330157691116006,"worst_witness":{"map":"mobius:0.16027069727528698-1.4275861318565588i,-0.3626371376717161+0.162671231071009i,1.375678185933526+1.9656309137455716i,-1.7456027286900677-1.813765227777393i","src":"disk:-0.4099261582811371,-0.7981909774324465,1.300954414392715","dst":"disk:0.6986767531182023,-0.5253467515159008,0.9511602126808294","z":"-0.688049943420906-0.7478731396631069i","w":"-0.19646814355260722-0.705445567677355i"}}',
                           0,
                           'absolute'),
 'ceiling/mobius-images/10000': ('{"suite":"lipschitz-ceiling-mobius-images","samples":40000,"seed":42,"passed":true,"worst_margin":0.1978003930935135,"worst_witness":{"map":"mobius:0.16027069727528698-1.4275861318565588i,-0.3626371376717161+0.162671231071009i,1.375678185933526+1.9656309137455716i,-1.7456027286900677-1.813765227777393i","src":"disk:-0.4099261582811371,-0.7981909774324465,1.300954414392715","dst":"disk:0.6986767531182023,-0.5253467515159008,0.9511602126808294","z":"-0.093957237554821-0.6863982221364395i","w":"-0.7549733934976739-0.8521959832099286i"}}',
                                 0,
                                 'absolute'),
 'equality/disk': ('{"suite":"schwarz-pick-disk-equality","samples":5000,"seed":42,"passed":true,"worst_margin":-8.848477506262498e-14,"worst_witness":{"map":"blaschke:5.522607459958829;[-0.859061125896592-0.1962437576432996i]","z":"0.804290897535126+0.5119250256684666i","w":"0.8588585478047295+0.5009232470049645i"}}',
                   0,
                   'absolute'),
 'equality/halfplane': ('{"suite":"schwarz-pick-halfplane-equality","samples":5000,"seed":42,"passed":true,"worst_margin":-1.3211653993039363e-14,"worst_witness":{"map":"mobius:-0.8999279210526323,0.9820609794951367,-1.7442302315066303,1.780164613244561","z":"4.407588129751838+2.2301418809195748i","w":"7.256906039954778+4.488214599242158i"}}',
                        0,
                        'absolute'),
 'search/automorphism': '{"best_ratio":1.4974270517249664,"witness_z":"-0.14285700000000204+2.1287351569139188e-09i","witness_w":"0.1428569999999999-4.257470397094564e-09i","evaluations":16005,"config":{"boundary_margin":1e-06,"separation_floor":1e-07,"grid_per_axis":8,"refine_rounds":60,"refine_seeds":16,"shrink_factor":0.5,"seed":42},"lower_bound_claim":1.4974270517249664,"theoretical_ceiling":2.0,"cstar_interval":[1.5,2.0]}',
 'search/cayley': '{"best_ratio":1.662591320919834,"witness_z":"54.11955287646776+372.75937203149397i","witness_w":"1000.0+372.75937203149397i","evaluations":15379,"config":{"boundary_margin":1e-06,"separation_floor":1e-07,"grid_per_axis":8,"refine_rounds":60,"refine_seeds":16,"shrink_factor":0.5,"seed":42},"lower_bound_claim":1.662591320919834,"theoretical_ceiling":2.0,"cstar_interval":null}',
 'search/extremal': '{"best_ratio":1.9999995813135971,"witness_z":"-1.0000000308666057+0.0026826957952797263i","witness_w":"-1000.0+0.0026826957952797263i","evaluations":17224,"config":{"boundary_margin":1e-06,"separation_floor":1e-07,"grid_per_axis":8,"refine_rounds":60,"refine_seeds":16,"shrink_factor":0.5,"seed":42},"lower_bound_claim":1.9999995813135971,"theoretical_ceiling":2.0,"cstar_interval":null}',
 'suite/bound-2-3': ('{"suite":"bound-2-3","samples":5000,"seed":42,"passed":true,"worst_margin":4.422787880375978e-08,"worst_witness":{"map":"compose(blaschke:6.17241104198212;[0.03894083513341271-0.6280410296722813i],blaschke:4.3127851666531845;[-0.013534259014944759-0.9131545878512816i])","z":"-0.05034945876231456+0.4480635533026929i"}}',
                     0,
                     'absolute'),
 'suite/g-negativity': ('{"suite":"g-negativity","samples":5000,"seed":42,"passed":true,"worst_margin":2.4737486187476065e-05,"worst_witness":{"c":0.5523826248394449,"X":8.5448831293555}}',
                        0,
                        'absolute'),
 'suite/identity-disk': ('{"suite":"identity-disk","samples":5000,"seed":42,"passed":true,"worst_margin":-7.812628453770823e-16,"worst_witness":{"x":"1.8044496053371368-2.5514854426374463i","y":"4.630135345334756+3.3693167154167405i"}}',
                         0,
                         'absolute'),
 'suite/identity-halfplane': ('{"suite":"identity-halfplane","samples":5000,"seed":42,"passed":true,"worst_margin":-7.523204521568439e-16,"worst_witness":{"x":"-6.114133860284262-2.358106503339245i","y":"6.653184068580815-7.931377749765309i"}}',
                              0,
                              'absolute'),
 'suite/lipschitz-pair': ('{"suite":"lipschitz-pair","samples":5000,"seed":42,"passed":true,"worst_margin":0.20768138015393456,"worst_witness":{"map":"compose(blaschke:5.508540937788233;[0.09443460768899183+0.8781068972839836i],blaschke:3.0779432993296614;[0.10270646422032481-0.577488500977303i])","src":"unitdisk","dst":"unitdisk","z":"-0.1143915631314647-0.43235770860333056i","w":"0.2980416734757705+0.29848231602565756i"}}',
                          0,
                          'absolute'),
 'suite/schwarz-pick-disk': ('{"suite":"schwarz-pick-disk","samples":5000,"seed":42,"passed":true,"worst_margin":-1.3433698597964394e-14,"worst_witness":{"map":"compose(blaschke:4.196044472483675;[-0.786723385691487-0.4121502447503183i],blaschke:4.646945398583154;[0.09765497602265141-0.7612140835293766i])","z":"-0.016682167450506213-0.04371324321750958i","w":"0.5005710079694206+0.7904366808086627i"}}',
                             0,
                             'absolute'),
 'suite/schwarz-pick-halfplane': ('{"suite":"schwarz-pick-halfplane","samples":5000,"seed":42,"passed":true,"worst_margin":-1.2501111257279263e-13,"worst_witness":{"map":"compose(extremal:-2.6474076714363117,2.973688597795319,mobius:1.195381084256872,1.4310994432021573,-1.7187421823669427,-1.9510792923568778)","z":"-9.147599160867674+3.7281500648482107i","w":"-8.125464826962732+1.8335771197908275i"}}',
                                  0,
                                  'absolute'),
 'suite/step-1-2': ('{"suite":"step-1-2","samples":5000,"seed":42,"passed":true,"worst_margin":7.773211714277167e-05,"worst_witness":{"map":"extremal:2.7476581044917436,-1.943008349891289","z":"-8.136054894163738+8.569760714920529i","w":"-7.770209815741698+8.547001512854905i"}}',
                    0,
                    'relative'),
 'suite/step-2-2': ('{"suite":"step-2-2","samples":5000,"seed":42,"passed":true,"worst_margin":0.004005227485531126,"worst_witness":{"map":"blaschke:1.5514401844529186;[0.27779116527047276+0.6319226244853418i,-0.8489745487188811+0.03076457385733148i,-0.6281951845525875+0.36644230476107204i]","z":"-0.4712845941843431-0.34899178867352454i","w":"-0.4700200939727017-0.36175412975988275i"}}',
                    0,
                    'relative')}


@pytest.mark.parametrize("name", sorted(_cases()))
def test_report_bytes(name):
    assert _report_fields(_cases()[name]()) == GOLDEN[name]


def test_search_bytes():
    for name in _SEARCHES:
        assert _search_json(name) == GOLDEN[name], name


if __name__ == "__main__":
    current = capture()
    for name in sorted(current.keys() | GOLDEN.keys()):
        if current.get(name) != GOLDEN.get(name):
            print(f"differs: {name}")
    print("GOLDEN = " + pprint.pformat(current, width=100))
