"""Reports of pjinv commands, byte for byte, against stored ones.

Two sets of reports live under golden/:

- ``certify --analytic-beta`` on six catalog maps.  They were written
  before the analytic profile was derived from the sum rule, when each
  catalog map carried a hand-written profile formula.  The derived profile
  differs from those formulas by rounding only (its Weyl margin is about
  n * 2.2e-16 * sigma_max), far below the 12 significant digits of a
  report, so every report must stay the same.
- ``COMMANDS``: one operation of each of the benchmark's nine operation
  classes at benchmark seeds 11 and 12, and the commands that evaluate the
  map at single points (``invert`` with every method, ``check`` with every
  suite, ``ball-check``), a Clarke mean value check on theta-c:3, a
  validity check that fails about half its trials, sampled ``certify`` profiles of theta-a:10:0.5 and theta-c:3
  with the sum, exact and 2-vertex Clarke providers, and of exp1d and
  complexsq with the sum provider, and a theta-c:3 certify with 5-vertex
  Clarke sets, whose sampled hull bounds give ``regular-sampled``.  Each
  command line is written out here.
- ``PROFILES``: sampled ``profile`` commands, their reports byte for byte
  and their ``--csv`` files row by row as floats to 1e-11 relative.  The
  CSV prints 12 digits, and on a dyadic grid a dyadic beta puts rho on a
  13th-digit tie, so a 1-ulp change could flip printed digits where the
  values agree.

A change that must move a report rewrites it with
``python tests/golden/regenerate.py`` and names each moved file and its
cause.
"""

import csv
import math
from pathlib import Path

import pytest

from pjinv.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# map identifier -> (report file, exit code)
CASES = {
    "theta-a:10:0.5": ("certify_theta-a_10_0.5.json", 0),
    "theta-b:6": ("certify_theta-b_6.json", 1),
    "theta-c:4": ("certify_theta-c_4.json", 0),
    "identity": ("certify_identity.json", 0),
    "abs-shift": ("certify_abs-shift.json", 0),
    "linear:diag.txt": ("certify_linear_diag.json", 0),
}

# the benchmark's inversion targets, drawn uniformly in [-5, 5]^n
TARGETS = {
    "clarke_s11": (
        "-3.714297972308004,-0.007221375598850166,1.0149835762335746,"
        "-4.713109916280555"
    ),
    "exact_s11": (
        "4.2821102296036955,-4.295794238458032,-3.70226050600702,"
        "4.48328453291775,1.2188359279638288,-1.3100687627020902,"
        "0.11390021803262673,1.6284295251679923,-2.246911842388707,"
        "-3.6203192713304464,2.8803959450399184,1.7036058410248378,"
        "0.12382313483160434,3.167364359696581,0.49075268870026356,"
        "4.8091363929730555,-2.954905386699551,0.5373036286522783,"
        "-0.1637530307661228,-1.467251449395519,0.9159530394904349,"
        "-2.6469876833241948,3.0220268377848356,3.673335518424146,"
        "-3.7124032877214894,-0.3292679326172889,-2.2285510746629567,"
        "-4.168830022647576,3.9594430825036753,-0.7005130795216461,"
        "-3.5230870003790593,1.7336235727591074,-2.9778397221196187,"
        "4.014310786881769,-2.8285174258147183,-4.669253126225713,"
        "-2.9923104583878066,-1.5425212624436044,-0.3109183657751533,"
        "4.061343388955606,1.9736108873629776,-1.6067933925755473,"
        "-4.831227849025021,-3.4017630589501904,4.964358755396706,"
        "-0.40284020106815444,1.9103991631875932,-4.4533193859816205,"
        "-4.659497210529624,3.4589010644505755"
    ),
    "newton_s11": (
        "0.8788194066686046,-1.9129025679543799,-1.8262336171866256,"
        "-4.107627455822512,-3.273303988914246,-4.754138925348137,"
        "3.391248483727816,-0.33696802796834824,-3.727970839414696,"
        "2.3924687403369207,-3.0434717005467906,-4.3807976485154745,"
        "0.9839210732403814,3.9575775174128154,-4.730565886152972,"
        "3.051359898916692,-3.0982998327165925,-4.070985783634528,"
        "-4.820379643474438,-2.0702493298791405,2.2711174398191813,"
        "-0.0682104899188305,3.5291999445452777,-2.8278869647850966,"
        "-1.8481725285656836,-2.4185914814541167,4.78301137314217,"
        "4.410059946514348,-1.5931382414349091,-0.6399849640766897,"
        "-1.8568037129614714,2.465089173054106,-4.599868974468098,"
        "-4.325610669079739,-0.9596241253159379,-2.54905948885936,"
        "3.4522498170122677,2.418070964752901,0.4579398252295679,"
        "1.6147551431350058,1.9227910668492392,2.810548233983421,"
        "4.275025971156827,-3.502648262122671,1.261301577453815,"
        "-3.563785568866449,-0.5686905871530312,2.8628478862373195,"
        "3.9469779368614546,2.5922815412452973"
    ),
    "clarke_s12": (
        "-2.491755418915539,4.467529428594245,-3.106796154602387,"
        "-3.207085895818924"
    ),
    "exact_s12": (
        "-2.6945875341009407,1.7044574277278466,-3.849206178765525,"
        "3.9630937370468047,3.581304890839089,-4.9717296781338,"
        "0.41466161718794226,-3.9314872597626005,-2.420450412390097,"
        "-0.8310395936689732,-0.4638387814672349,-0.318534090560993,"
        "4.275167008723264,-2.4122891057784956,-3.1210978921546206,"
        "1.7051047405450017,4.466187033519777,4.228108754437514,"
        "3.802499999234737,-4.356443040763852,4.366961249291336,"
        "1.4924036905447533,3.715558455252964,-0.9190153194401578,"
        "-2.8061006549166176,2.9297007689469314,1.6163447099178363,"
        "2.788400920220722,-2.986553020982302,-3.656482627016074,"
        "2.6362508963767137,-4.797712762899135,4.456006812986059,"
        "-3.649121374907345,1.0011028552960095,-0.8099295198853182,"
        "-1.7610494786592392,-3.297537284363954,2.8038280129310476,"
        "4.145245872555922,2.2887138186120684,1.0028478756705361,"
        "2.1145387029858886,0.3608860651115684,0.5826534180296399,"
        "4.060838701495761,-2.173595894556717,-2.77786101709078,"
        "4.469682047271869,4.4311667652137885"
    ),
    "newton_s12": (
        "-0.2400287268747645,3.007780011081042,2.4324997533640067,"
        "4.492661211569702,-4.182967107383218,3.9815719750867906,"
        "0.0012384766795703328,-0.5103661842678564,1.8676011402936021,"
        "1.164768219402089,-0.6346367804383153,-2.0889285145900183,"
        "4.186639262189912,3.1881055673496252,-3.9753641852482104,"
        "-0.955271627960367,2.6340216378022054,3.7905934647831447,"
        "4.622294289531313,-2.592791106657766,3.9173685013502855,"
        "1.9487056368826767,-4.31796818041666,-2.893711573435037,"
        "-3.1130801373263584,-4.226094982122167,1.8740997542823798,"
        "-1.8985932164840866,1.9177326431227737,-4.182914875581599,"
        "3.712098784014854,1.9557314370190824,2.8216344915650504,"
        "1.0644792003451435,-0.4227438516211679,-3.069828097400956,"
        "4.423628161141087,-3.545565505523461,0.21341606641042254,"
        "-3.7856688037495747,-3.916062041085789,1.9675519541041089,"
        "3.8878936727862925,-0.38840713278145067,2.9459138911246736,"
        "3.5957316802874733,0.3543079794034112,2.75495965795208,"
        "-2.0705363741357985,-3.4987035987480875"
    ),
}

MESH = "certify --map theta-c:4 --provider clarke:delta=1e-3,m=2,eps=0"
SINGLETON = ("certify --map theta-a:10:0.5 --provider sum --grid-n 32 "
             "--shell-samples 32")
INVERT_CLARKE = ("invert --map theta-a:4:0.5 "
                 "--provider clarke:delta=1e-4,m=8,eps=0 --method path")
INVERT_EXACT = "invert --map theta-a:50:0.5 --provider exact"
VALIDITY = ("check validity --map theta-c:3 "
            "--provider clarke:delta=1e-3,m=32,eps=0 --trials 1000 --tol 1e-3")
CHAIN = "check chain --map theta-c:3 --provider sum --trials 500 --tol 1e-3"
MVT = ("check mvt --map theta-a:2:0.5 --provider clarke:delta=1e-4,m=64,eps=0 "
       "--trials 10 --tol 1e-3")
# 5-vertex Clarke sets: the sampled hull bound, and a sampled index
SAMPLED = "certify --map theta-c:3 --provider clarke:delta=1e-3,m=5,eps=0"

# report file stem -> (command line, exit code); no argument holds a space
COMMANDS = {
    "bench_certify_mesh_s11": (
        f"{MESH} --grid-n 3 --shell-samples 1 --seed 287335975", 0),
    "bench_certify_singleton_s11": (f"{SINGLETON} --seed 276102408", 0),
    "bench_certify_analytic_s11": (
        f"{MESH} --analytic-beta --seed 1711717683", 0),
    "bench_invert_clarke_s11": (
        f"{INVERT_CLARKE} --target={TARGETS['clarke_s11']} --seed 1042610374",
        0),
    "bench_invert_exact_s11": (
        f"{INVERT_EXACT} --method path --target={TARGETS['exact_s11']} "
        "--seed 317668847", 0),
    "bench_invert_newton_s11": (
        f"{INVERT_EXACT} --method newton --target={TARGETS['newton_s11']} "
        "--seed 1160798862", 0),
    "bench_check_validity_s11": (f"{VALIDITY} --seed 287335975", 0),
    "bench_check_chain_s11": (f"{CHAIN} --seed 276102408", 0),
    "bench_check_mvt_s11": (f"{MVT} --seed 1267085886", 0),
    "bench_certify_mesh_s12": (
        f"{MESH} --grid-n 3 --shell-samples 1 --seed 1315760028", 0),
    "bench_certify_singleton_s12": (f"{SINGLETON} --seed 538641422", 0),
    "bench_certify_analytic_s12": (
        f"{MESH} --analytic-beta --seed 2089470804", 0),
    "bench_invert_clarke_s12": (
        f"{INVERT_CLARKE} --target={TARGETS['clarke_s12']} --seed 1249649248",
        0),
    "bench_invert_exact_s12": (
        f"{INVERT_EXACT} --method path --target={TARGETS['exact_s12']} "
        "--seed 751381422", 0),
    "bench_invert_newton_s12": (
        f"{INVERT_EXACT} --method newton --target={TARGETS['newton_s12']} "
        "--seed 251532929", 0),
    "bench_check_validity_s12": (f"{VALIDITY} --seed 1315760028", 0),
    "bench_check_chain_s12": (f"{CHAIN} --seed 538641422", 0),
    "bench_check_mvt_s12": (f"{MVT} --seed 138338361", 0),
    # complexsq is singular at the default start 0: the pseudo-inverse path
    "invert_complexsq_newton": (
        "invert --map complexsq --method newton --target 1,1", 1),
    "invert_complexsq_path": (
        "invert --map complexsq --method path --target 1,1", 1),
    "invert_complexsq_ekeland": (
        "invert --map complexsq --method ekeland --target 1,1", 0),
    # -1 is not a value of exp: every method reports its failure status
    "invert_exp1d_newton": ("invert --map exp1d --method newton --target=-1",
                            1),
    "invert_exp1d_path": ("invert --map exp1d --method path --target=-1", 1),
    "invert_exp1d_ekeland": ("invert --map exp1d --method ekeland --target=-1",
                             1),
    "invert_complexsq_clarke_path": (
        "invert --map complexsq --provider clarke:delta=1e-4,m=8,eps=0 "
        "--method path --target 1,1 --x0 1,1", 0),
    # the Clarke vertex choice outside path lifting
    "invert_theta-a_4_clarke_newton": (
        "invert --map theta-a:4:0.5 --provider clarke:delta=1e-4,m=8,eps=0 "
        "--method newton --target 1,2,3,4", 0),
    "invert_theta-a_4_clarke_ekeland": (
        "invert --map theta-a:4:0.5 --provider clarke:delta=1e-4,m=8,eps=0 "
        "--method ekeland --target 1,2,3,4", 0),
    "check_validity_complexsq": ("check validity --map complexsq --seed 3", 0),
    "check_chain_complexsq": ("check chain --map complexsq --seed 3", 0),
    "check_mvt_complexsq": ("check mvt --map complexsq --seed 3", 0),
    # the Clarke mean value check at n = 3: its sampling, stencils and
    # hull projection on blocks of 3 columns
    "check_mvt_theta-c_3_clarke": (
        "check mvt --map theta-c:3 --provider clarke:delta=1e-3,m=16,eps=0 "
        "--trials 20 --seed 5", 0),
    "check_optimality": ("check optimality", 0),
    # a one-vertex Clarke set at the kink fails about half the trials, so a
    # change of the support bounds that moves a verdict moves this rate
    "check_validity_abs-shift_clarke_m1": (
        "check validity --map abs-shift --provider clarke:delta=1e-3,m=1,eps=0 "
        "--trials 1000", 1),
    # sampled certify profiles at a small grid; theta-c:3 with exact reports
    # regular-certified from the unsound USC shortcut at its kink, pinned
    # as it is so that a fix of that shortcut moves it on purpose
    "certify_theta-a_10_0.5_sum": (
        "certify --map theta-a:10:0.5 --provider sum --grid-n 5 "
        "--shell-samples 8", 0),
    "certify_theta-a_10_0.5_exact": (
        "certify --map theta-a:10:0.5 --provider exact --grid-n 5 "
        "--shell-samples 8", 0),
    "certify_theta-a_10_0.5_clarke": (
        "certify --map theta-a:10:0.5 --provider clarke:delta=1e-3,m=2,eps=0 "
        "--grid-n 5 --shell-samples 8", 0),
    "certify_theta-c_3_sum": (
        "certify --map theta-c:3 --provider sum --grid-n 5 --shell-samples 8",
        0),
    "certify_theta-c_3_exact": (
        "certify --map theta-c:3 --provider exact --grid-n 5 "
        "--shell-samples 8", 0),
    "certify_theta-c_3_clarke": (
        "certify --map theta-c:3 --provider clarke:delta=1e-3,m=2,eps=0 "
        "--grid-n 5 --shell-samples 8", 0),
    # regular-sampled: the sampled index clears the margin 10 * net
    "certify_theta-c_3_clarke_m5": (
        f"{SAMPLED} --grid-n 3 --shell-samples 2 --seed 4", 0),
    # the sum rule off the theta family: exp1d's derivative grows along the
    # ray, and complexsq's vanishes at its center
    "certify_exp1d_sum": (
        "certify --map exp1d --provider sum --grid-n 5 --shell-samples 8", 0),
    "certify_complexsq_sum": (
        "certify --map complexsq --provider sum --grid-n 5 --shell-samples 8",
        1),
    "ball-check_theta-c_3": (
        "ball-check --map theta-c:3 --delta 0.5 --grid-n 16 --shell-samples 8 "
        "--samples 20 --seed 5", 0),
    "ball-check_abs-shift_analytic": (
        "ball-check --map abs-shift --analytic-beta --delta 0.5 --samples 10",
        0),
}


# report file stem -> (command line, exit code); the CSV is <stem>.csv
PROFILES = {
    "profile_theta-c_3_sum": ("profile --map theta-c:3 --provider sum", 0),
    "profile_theta-a_10_0.5_clarke": (
        "profile --map theta-a:10:0.5 --provider clarke:delta=1e-3,m=2,eps=0 "
        "--grid-n 5 --shell-samples 8", 0),
    "profile_theta-c_3_exact": ("profile --map theta-c:3 --provider exact", 0),
    "profile_exp1d_sum": (
        "profile --map exp1d --provider sum --grid-n 5 --shell-samples 8", 0),
    "profile_complexsq_sum": (
        "profile --map complexsq --provider sum --grid-n 5 --shell-samples 8",
        0),
}


def csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("map_id", CASES)
def test_certify_analytic_report_is_unchanged(tmp_path, monkeypatch, capsys,
                                              map_id):
    # the linear map reads diag(2, 3) from a relative path, which the
    # report echoes
    monkeypatch.chdir(tmp_path)
    (tmp_path / "diag.txt").write_text("2 0\n0 3\n")
    name, code = CASES[map_id]
    assert main(["certify", "--map", map_id, "--analytic-beta"]) == code
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("stem", COMMANDS)
def test_command_report_is_unchanged(capsys, stem):
    command, code = COMMANDS[stem]
    assert main(command.split()) == code
    assert capsys.readouterr().out.encode() == \
        (GOLDEN / f"{stem}.json").read_bytes()


@pytest.mark.parametrize("stem", PROFILES)
def test_profile_report_and_csv_are_unchanged(tmp_path, capsys, stem):
    command, code = PROFILES[stem]
    assert main(command.split() + ["--csv", str(tmp_path / "p.csv")]) == code
    assert capsys.readouterr().out.encode() == \
        (GOLDEN / f"{stem}.json").read_bytes()
    got, want = csv_rows(tmp_path / "p.csv"), csv_rows(GOLDEN / f"{stem}.csv")
    assert got[0] == want[0] and len(got) == len(want)
    for got_row, want_row in zip(got[1:], want[1:]):
        assert all(math.isclose(float(a), float(b), rel_tol=1e-11)
                   for a, b in zip(got_row, want_row, strict=True))
