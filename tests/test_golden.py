"""Byte-identity gate for the seeded reports.

Pins the exact JSON, skip count and margin convention of every suite, both
Schwarz-Pick equality runs, the three ceiling kinds, three distortion searches
(a disk automorphism, extremal 1,1 and the Cayley map) at 8 points per axis and
the benchmark's four at the default 24, all at seed 42.
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
_MAPS = {
    "automorphism": (UnitDisk(), Blaschke(0.0, (0.5,))),
    "extremal": (UpperHalfPlane(), Extremal(1.0, 1.0)),
    "cayley": (UpperHalfPlane(), Mobius(1.0, -1j, 1.0, 1j)),
    "blaschke3": (UnitDisk(), Blaschke(0.0, (0.5, 0.5j, -0.5))),
}
# search/<map> at 8 points per axis; search/<map>/24 are the benchmark's searches
# (bench/workloads.py SEARCH_MAPS) at the default grid, where extremal's
# local-distortion seeds (|f'| d(z) / d(f(z)) = 1 at every point) rank by rounding.
_SEARCHES = {f"search/{name}": (name, 8) for name in ("automorphism", "extremal", "cayley")}
_SEARCHES.update((f"search/{name}/24", (name, 24)) for name in _MAPS)


def _search_json(name):
    map_name, grid = _SEARCHES[name]
    return estimate_lipschitz(*_MAPS[map_name], SearchConfig(grid_per_axis=grid, seed=SEED)).to_json()


def capture() -> dict:
    out = {name: _report_fields(run()) for name, run in _cases().items()}
    out.update((name, _search_json(name)) for name in _SEARCHES)
    return out


# Captured at seed 42: the search/<map> entries while the search grid still scored
# its pairs one at a time; the search/<map>/24 entries while the local-distortion
# seeds were still ranked one point at a time; the suite/*, equality/* and
# ceiling/* entries after suite chunks came to draw their maps and points as
# arrays, the ceiling maps through the same families, and the Schwarz-Pick
# margins to be slack over its rounding scale; the two ceiling/mobius-images
# entries again once image domains came from the closed-form image of the
# source's circle equation instead of a circle fitted through three points.
GOLDEN = {'ceiling/disk': ('{"suite":"lipschitz-ceiling-disk","samples":2000,"seed":42,"passed":true,"worst_margin":0.34851105099397084,"worst_witness":{"map":"blaschke:5.004517901703075;[0.5466269528224328+0.46118297147188697i]","src":"unitdisk","dst":"unitdisk","z":"0.3282539794630479+0.1818003935620276i","w":"-0.38794038982024115-0.14814861736905427i"}}',
                  0,
                  'absolute'),
 'ceiling/disk/10000': ('{"suite":"lipschitz-ceiling-disk","samples":40000,"seed":42,"passed":true,"worst_margin":0.3078684173196131,"worst_witness":{"map":"blaschke:5.004517901703075;[0.5466269528224328+0.46118297147188697i]","src":"unitdisk","dst":"unitdisk","z":"0.30991754648577463+0.19226397006645413i","w":"-0.2921230087795019-0.22202320239337214i"}}',
                        0,
                        'absolute'),
 'ceiling/halfplane': ('{"suite":"lipschitz-ceiling-halfplane","samples":2000,"seed":42,"passed":true,"worst_margin":0.0917710698251184,"worst_witness":{"map":"extremal:2.2304435544436423,-0.9007319784635959","src":"upperhalfplane","dst":"upperhalfplane","z":"-8.011509117002047+0.5681861905326463i","w":"0.7899936266569956+0.6516966454625771i"}}',
                       0,
                       'absolute'),
 'ceiling/halfplane/10000': ('{"suite":"lipschitz-ceiling-halfplane","samples":40000,"seed":42,"passed":true,"worst_margin":0.0865040678628537,"worst_witness":{"map":"extremal:2.2304435544436423,-0.9007319784635959","src":"upperhalfplane","dst":"upperhalfplane","z":"1.1664262657485853+0.8785808462352265i","w":"-9.773825297680219+0.8650008384039526i"}}',
                             0,
                             'absolute'),
 'ceiling/mobius-images': ('{"suite":"lipschitz-ceiling-mobius-images","samples":2000,"seed":42,"passed":true,"worst_margin":0.3127569853485479,"worst_witness":{"map":"mobius:0.16027069727528698-1.4275861318565588i,-0.3626371376717161+0.162671231071009i,1.375678185933526+1.9656309137455716i,-1.7456027286900677-1.813765227777393i","src":"disk:-0.4099261582811371,-0.7981909774324465,1.300954414392715","dst":"disk:0.6986767531182024,-0.5253467515159012,0.9511602126808298","z":"-0.01868096398920649-0.7892200088671697i","w":"-0.9276257657040684-0.779259999436458i"}}',
                           0,
                           'absolute'),
 'ceiling/mobius-images/10000': ('{"suite":"lipschitz-ceiling-mobius-images","samples":40000,"seed":42,"passed":true,"worst_margin":0.20232452801477607,"worst_witness":{"map":"mobius:0.16027069727528698-1.4275861318565588i,-0.3626371376717161+0.162671231071009i,1.375678185933526+1.9656309137455716i,-1.7456027286900677-1.813765227777393i","src":"disk:-0.4099261582811371,-0.7981909774324465,1.300954414392715","dst":"disk:0.6986767531182024,-0.5253467515159012,0.9511602126808298","z":"-0.15279369870218962-0.5654809986925589i","w":"-0.7344428704534965-0.9118748999264665i"}}',
                                 0,
                                 'absolute'),
 'equality/disk': ('{"suite":"schwarz-pick-disk-equality","samples":5000,"seed":42,"passed":true,"worst_margin":-1.686888333539992e-16,"worst_witness":{"map":"blaschke:2.5875863554995715;[-0.7069569183440323-0.018115088354507397i]","z":"-0.595050604947511+0.002108544763472331i","w":"-0.842722630547855-0.1243836901777351i"}}',
                   0,
                   'rounding-scaled'),
 'equality/halfplane': ('{"suite":"schwarz-pick-halfplane-equality","samples":5000,"seed":42,"passed":true,"worst_margin":-1.0190989824136378e-16,"worst_witness":{"map":"mobius:1.3816582022879302,1.3154270061709505,-1.4083901995428234,-0.19301418078054944","z":"6.957210059048272+7.022995661558206i","w":"7.114609918642209+9.476659196454067i"}}',
                        0,
                        'rounding-scaled'),
 'search/automorphism': '{"best_ratio":1.4974270517249664,"witness_z":"-0.14285700000000204+2.1287351569139188e-09i","witness_w":"0.1428569999999999-4.257470397094564e-09i","evaluations":16005,"config":{"boundary_margin":1e-06,"separation_floor":1e-07,"grid_per_axis":8,"refine_rounds":60,"refine_seeds":16,"shrink_factor":0.5,"seed":42},"lower_bound_claim":1.4974270517249664,"theoretical_ceiling":2.0,"cstar_interval":[1.5,2.0]}',
 'search/automorphism/24': '{"best_ratio":1.499762434729896,"witness_z":"-0.04347821739130439+0.0002972143766983019i","witness_w":"0.04347921739130431+3.7131065057604365e-05i","evaluations":180926,"config":{"boundary_margin":1e-06,"separation_floor":1e-07,"grid_per_axis":24,"refine_rounds":60,"refine_seeds":16,"shrink_factor":0.5,"seed":42},"lower_bound_claim":1.499762434729896,"theoretical_ceiling":2.0,"cstar_interval":[1.5,2.0]}',
 'search/blaschke3/24': '{"best_ratio":1.044296675564465,"witness_z":"-0.8260861304347826-0.47826039130435277i","witness_w":"-0.47826039130435277-0.8260861304347826i","evaluations":181165,"config":{"boundary_margin":1e-06,"separation_floor":1e-07,"grid_per_axis":24,"refine_rounds":60,"refine_seeds":16,"shrink_factor":0.5,"seed":42},"lower_bound_claim":1.044296675564465,"theoretical_ceiling":2.0,"cstar_interval":[1.125,2.0]}',
 'search/cayley': '{"best_ratio":1.662591320919834,"witness_z":"54.11955287646776+372.75937203149397i","witness_w":"1000.0+372.75937203149397i","evaluations":15379,"config":{"boundary_margin":1e-06,"separation_floor":1e-07,"grid_per_axis":8,"refine_rounds":60,"refine_seeds":16,"shrink_factor":0.5,"seed":42},"lower_bound_claim":1.662591320919834,"theoretical_ceiling":2.0,"cstar_interval":null}',
 'search/cayley/24': '{"best_ratio":1.9508198560741092,"witness_z":"-1000.0+67.00187503509576i","witness_w":"-3.8947748101276183+67.00187503509576i","evaluations":338766,"config":{"boundary_margin":1e-06,"separation_floor":1e-07,"grid_per_axis":24,"refine_rounds":60,"refine_seeds":16,"shrink_factor":0.5,"seed":42},"lower_bound_claim":1.9508198560741092,"theoretical_ceiling":2.0,"cstar_interval":null}',
 'search/extremal': '{"best_ratio":1.9999995813135971,"witness_z":"-1.0000000308666057+0.0026826957952797263i","witness_w":"-1000.0+0.0026826957952797263i","evaluations":17224,"config":{"boundary_margin":1e-06,"separation_floor":1e-07,"grid_per_axis":8,"refine_rounds":60,"refine_seeds":16,"shrink_factor":0.5,"seed":42},"lower_bound_claim":1.9999995813135971,"theoretical_ceiling":2.0,"cstar_interval":null}',
 'search/extremal/24': '{"best_ratio":1.9999973109669136,"witness_z":"-1.0000000829280593+0.014924955450518296i","witness_w":"-1000.0+0.014924955450518296i","evaluations":343484,"config":{"boundary_margin":1e-06,"separation_floor":1e-07,"grid_per_axis":24,"refine_rounds":60,"refine_seeds":16,"shrink_factor":0.5,"seed":42},"lower_bound_claim":1.9999973109669136,"theoretical_ceiling":2.0,"cstar_interval":null}',
 'suite/bound-2-3': ('{"suite":"bound-2-3","samples":5000,"seed":42,"passed":true,"worst_margin":1.5040011835942835e-07,"worst_witness":{"map":"compose(blaschke:3.853153957015737;[0.5707687226123264-0.5239658166287049i],blaschke:4.052101543125645;[0.007592919551136445+0.7978843621404805i])","z":"-0.06824634136298657-0.9820539991815835i"}}',
                     0,
                     'absolute'),
 'suite/g-negativity': ('{"suite":"g-negativity","samples":5000,"seed":42,"passed":true,"worst_margin":2.81270114976806e-06,"worst_witness":{"c":0.9348259610029422,"X":4.316926626408599e-05}}',
                        0,
                        'absolute'),
 'suite/identity-disk': ('{"suite":"identity-disk","samples":5000,"seed":42,"passed":true,"worst_margin":-7.644312463414823e-16,"worst_witness":{"x":"3.4550794838884507+7.725681732497611i","y":"7.286525828053669+5.274429571256945i"}}',
                         0,
                         'absolute'),
 'suite/identity-halfplane': ('{"suite":"identity-halfplane","samples":5000,"seed":42,"passed":true,"worst_margin":-6.875765446175718e-16,"worst_witness":{"x":"-7.483698841559587-6.392500609182564i","y":"4.745690433900133+4.927965191274575i"}}',
                              0,
                              'absolute'),
 'suite/lipschitz-pair': ('{"suite":"lipschitz-pair","samples":5000,"seed":42,"passed":true,"worst_margin":0.18984249522211627,"worst_witness":{"map":"compose(blaschke:0.802442461795429;[-0.2703827478700574-0.7630497132710372i],blaschke:5.815655850679771;[-0.4767482766830163-0.6981439850548347i])","src":"unitdisk","dst":"unitdisk","z":"-0.5688396648375391+0.23180124427723503i","w":"-0.43024145257587376-0.4297183886633096i"}}',
                          0,
                          'absolute'),
 'suite/schwarz-pick-disk': ('{"suite":"schwarz-pick-disk","samples":5000,"seed":42,"passed":true,"worst_margin":-8.931448937908914e-17,"worst_witness":{"map":"blaschke:0.7733199577550067;[0.20843509048099138+0.7183595994382123i]","z":"-0.36142831298962896+0.5107059088343819i","w":"-0.27907129494536465+0.47149370283438397i"}}',
                             0,
                             'rounding-scaled'),
 'suite/schwarz-pick-halfplane': ('{"suite":"schwarz-pick-halfplane","samples":5000,"seed":42,"passed":true,"worst_margin":-3.028611073194945e-16,"worst_witness":{"map":"compose(mobius:-0.7775638663917959,1.5069906762267027,-0.6569795849416709,-0.834680352679134,mobius:0.8413620144961498,1.820181075714951,-0.9096219386165152,0.050263565647612474)","z":"9.80327624055517+3.7744044087272095i","w":"9.319872537073127+3.400549901766794i"}}',
                                  0,
                                  'rounding-scaled'),
 'suite/step-1-2': ('{"suite":"step-1-2","samples":5000,"seed":42,"passed":true,"worst_margin":1.343541422086248e-05,"worst_witness":{"map":"extremal:-0.3161177763820828,1.4201237763161156","z":"3.0790377337872776+9.127192054349043i","w":"3.1240777910006496+9.165132744536935i"}}',
                    0,
                    'relative'),
 'suite/step-2-2': ('{"suite":"step-2-2","samples":5000,"seed":42,"passed":true,"worst_margin":0.0003968409834365569,"worst_witness":{"map":"blaschke:4.6433877786790445;[0.0329440411494273-0.8432089301580745i]","z":"-0.3425859394328221-0.0472673970061781i","w":"-0.3467337096619372-0.020512867714125305i"}}',
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
