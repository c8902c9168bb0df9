import gc
import inspect
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import field, make_dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import tfim_rfs.elliptic
import tfim_rfs.exact
from tfim_rfs import (
    ChainSpec,
    ConsistencyError,
    CorrelatorSet,
    SingularBlockError,
    build_rdm,
    correlators_finite,
    correlators_thermo,
    rfs_closed_form,
    susceptibility,
    susceptibility_slope,
    susceptibility_thermo,
)
from tfim_rfs.exact import (
    _correlators_finite_array,
    _correlators_thermo_array,
    _finite_curvature,
    _slot_init,
)

FIELDS = ("sz", "xx", "yy", "zz")
DERIVS = ("d_sz", "d_xx", "d_yy", "d_zz")


def _bits(c):
    return [getattr(c, name).hex() for name in FIELDS + DERIVS]


CRITICAL = {
    "sz": 2.0 / math.pi,
    "xx": 2.0 / math.pi,
    "yy": -2.0 / (3.0 * math.pi),
    "zz": 16.0 / (3.0 * math.pi ** 2),
}


# float.hex of sz, xx, yy, zz, d_sz, d_xx, d_yy, d_zz and of the second
# derivatives (d2_sz, d2_xx, d2_yy, d2_zz) of ``_finite_curvature``, one row
# per coupling in PIN_LAMS.  The in-place sums must round every summand as
# the plain expressions of ``_plain_sums`` do; any reordering of an
# operation shows here as a bit difference.
PIN_LAMS = (0.005, 0.5, 1.0 - 2.0 ** -52, 1.0, 1.0 + 2.0 ** -52, 1.0003, 3.0)
FINITE_PINS = {
    12: (
        ("0x1.ffff2e48a83a4p-1 0x1.47ae5796e9000p-9 -0x1.47ad4b2701000p-9 0x1.ffff2e4867cd7p-1 "
         "-0x1.47aeddcf4af9bp-9 0x1.00009d49f2931p-1 -0x1.fffc5045fe0efp-2 -0x1.47afa7238b768p-9 "
         "-0x1.0001d7df19dbap-1 0x1.eb890d61674d5p-10 0x1.70a57a7ae3890p-8 -0x1.0003afbd92a63p-1"),
        ("0x1.de4d3f8d798dfp-1 0x1.08f0295d28967p-2 -0x1.cd27eba81aaa5p-3 0x1.dca66501264f5p-1 "
         "-0x1.1d6001848366ap-2 0x1.1d6001848366ap-1 -0x1.60d41e6ef4388p-2 -0x1.396156fa4b0aep-2 "
         "-0x1.694d74d7d5a4fp-1 0x1.2fb5cd4d48f93p-2 0x1.6510c9a364eebp-1 -0x1.c90c26f64fbc8p-1"),
        ("0x1.46e1ccb5fa74dp-1 0x1.46e1ccb5fa749p-1 -0x1.bdf936c5bec00p-3 0x1.17e085518cf70p-1 "
         "-0x1.e804e47c9147ep-1 0x1.e804e47c91480p-1 0x1.0cd4d748dc357p-1 -0x1.5840a767c188ap+0 "
         "0x1.e804e47c9140cp-2 -0x1.6e03ab5d6cf44p+0 0x1.619a78d823308p-1 0x1.5840a767c182cp-1"),
        ("0x1.46e1ccb5fa74bp-1 0x1.46e1ccb5fa74bp-1 -0x1.bdf936c5bebfdp-3 0x1.17e085518cf6ep-1 "
         "-0x1.e804e47c9147bp-1 0x1.e804e47c9147bp-1 0x1.0cd4d748dc356p-1 -0x1.5840a767c1887p+0 "
         "0x1.e804e47c9147ep-2 -0x1.6e03ab5d6cf5dp+0 0x1.619a78d8232d0p-1 0x1.5840a767c1884p-1"),
        ("0x1.46e1ccb5fa749p-1 0x1.46e1ccb5fa74dp-1 -0x1.bdf936c5bebf8p-3 0x1.17e085518cf6bp-1 "
         "-0x1.e804e47c9147dp-1 0x1.e804e47c9147bp-1 0x1.0cd4d748dc359p-1 -0x1.5840a767c1887p+0 "
         "0x1.e804e47c914eep-2 -0x1.6e03ab5d6cf78p+0 0x1.619a78d823298p-1 0x1.5840a767c18ebp-1"),
        ("0x1.46bc5296abf61p-1 0x1.47074564f4209p-1 -0x1.bda69cdb21f41p-3 0x1.17aba5c78e0aap-1 "
         "-0x1.e7f1fca87498cp-1 0x1.e7cc862417b68p-1 0x1.0cefd481c54b9p-1 -0x1.58334c7e5424ap+0 "
         "0x1.f0a5017a4501cp-2 -0x1.6ff3413e8c044p+0 0x1.5d3d45d2a5945p-1 0x1.5f534b347fd31p-1"),
        ("0x1.5a492419e1e10p-3 0x1.f1777b7757c8cp-1 -0x1.d48ccbb2fb6b5p-7 0x1.5c04e61a31009p-5 "
         "-0x1.db88d0d5bc02ep-5 0x1.3d05e08e7d574p-6 0x1.42028318a8892p-7 -0x1.d9863434ae8aep-6 "
         "0x1.4bbfd01962530p-5 -0x1.46d72aeb15ff1p-6 -0x1.500ef08bac54fp-7 0x1.e7259e26fd4bcp-6"),
    ),
    1024: (
        ("0x1.ffff2e48a83a4p-1 0x1.47ae5796e9000p-9 -0x1.47ad4b2701080p-9 0x1.ffff2e4867cd7p-1 "
         "-0x1.47aeddcf4af9cp-9 0x1.00009d49f2932p-1 -0x1.fffc5045fe0f0p-2 -0x1.47afa7238b729p-9 "
         "-0x1.0001d7df19dbbp-1 0x1.eb890d6167800p-10 0x1.70a57a7ae3830p-8 -0x1.0003afbd92a64p-1"),
        ("0x1.de517d0c336a1p-1 0x1.08dd9e24a161dp-2 -0x1.cd2e3d4d2e4c5p-3 0x1.dcaca345680dcp-1 "
         "-0x1.1c9a7e8a180afp-2 0x1.1c9a7e8a180afp-1 -0x1.61277d862c82ap-2 -0x1.383d0c0e3820ap-2 "
         "-0x1.61277d862c829p-1 0x1.1233fbf051de8p-2 0x1.61277d862c828p-1 -0x1.bce8ef89241fbp-1"),
        ("0x1.45f30f3d45cb2p-1 0x1.45f30f3d45ca8p-1 -0x1.b299c30378f9bp-3 0x1.14acc08892c5ep-1 "
         "-0x1.2f4577379d278p+1 0x1.2f4577379d279p+1 0x1.f1e48e6fb14c6p+0 -0x1.e043dc7d3e7bap+1 "
         "0x1.2f457737690cep+0 -0x1.c6e832d351ae2p+1 0x1.6598a73795c30p+0 0x1.e043dc7ce608ap+0"),
        ("0x1.45f30f3d45cadp-1 0x1.45f30f3d45cadp-1 -0x1.b299c30378f8cp-3 0x1.14acc08892c56p-1 "
         "-0x1.2f4577379d277p+1 0x1.2f4577379d277p+1 0x1.f1e48e6fb14c8p+0 -0x1.e043dc7d3e7b8p+1 "
         "0x1.2f4577379d276p+0 -0x1.c6e832d36bbb2p+1 0x1.6598a73761a88p+0 0x1.e043dc7d3e7bfp+0"),
        ("0x1.45f30f3d45ca9p-1 0x1.45f30f3d45cb2p-1 -0x1.b299c30378f7cp-3 0x1.14acc08892c4fp-1 "
         "-0x1.2f4577379d276p+1 0x1.2f4577379d275p+1 0x1.f1e48e6fb14ccp+0 -0x1.e043dc7d3e7b8p+1 "
         "0x1.2f457737d1420p+0 -0x1.c6e832d385c83p+1 0x1.6598a7372d8ddp+0 0x1.e043dc7d96ef6p+0"),
        ("0x1.459606cb37e28p-1 0x1.4650141d98086p-1 -0x1.b16852d2132aep-3 0x1.14197019edf3fp-1 "
         "-0x1.2e02d0d3407dap+1 0x1.2deba0d401ec8p+1 0x1.ef91d2d2f3737p+0 -0x1.de216bf7832bap+1 "
         "0x1.fdd766ae8af6ap+5 -0x1.0846c47b0b323p+6 -0x1.e96a8726ac0a6p+5 0x1.b040ce16f5d78p+6"),
        ("0x1.5a48ac328495ap-3 0x1.f177849e2c21ap-1 -0x1.d47523cce5438p-7 0x1.5bfe870137eccp-5 "
         "-0x1.db8206f09162ap-5 0x1.3d0159f5b641cp-6 0x1.41b49c0d7e584p-7 -0x1.d95ba2fdfd4d8p-6 "
         "0x1.4ba503141d6bdp-5 -0x1.46c3cab4a5b32p-6 -0x1.4ef5256ba7c7ap-7 0x1.e689424d20595p-6"),
    ),
    2 ** 16: (
        ("0x1.ffff2e48a83a4p-1 0x1.47ae5796e9000p-9 -0x1.47ad4b2701080p-9 0x1.ffff2e4867cd7p-1 "
         "-0x1.47aeddcf4af9cp-9 0x1.00009d49f2932p-1 -0x1.fffc5045fe0f0p-2 -0x1.47afa7238b729p-9 "
         "-0x1.0001d7df19dbbp-1 0x1.eb890d6167800p-10 0x1.70a57a7ae3830p-8 -0x1.0003afbd92a64p-1"),
        ("0x1.de517d0c336a1p-1 0x1.08dd9e24a161ep-2 -0x1.cd2e3d4d2e4c5p-3 0x1.dcaca345680dcp-1 "
         "-0x1.1c9a7e8a180aep-2 0x1.1c9a7e8a180aep-1 -0x1.61277d862c828p-2 -0x1.383d0c0e38209p-2 "
         "-0x1.61277d862c828p-1 0x1.1233fbf051deap-2 0x1.61277d862c829p-1 -0x1.bce8ef89241fcp-1"),
        ("0x1.45f306dd22934p-1 0x1.45f306dd22924p-1 -0x1.b2995e81c3e0cp-3 0x1.14aca4188f694p-1 "
         "-0x1.d8b83173edb11p+1 0x1.d8b83173edb13p+1 0x1.a26505a43b3f9p+1 -0x1.7ff6f1f055e66p+2 "
         "0x1.d8b82e3241ee6p+0 -0x1.628a244687544p+2 0x1.0785b042a5f23p+1 0x1.7ff6ef2cb1958p+1"),
        ("0x1.45f306dd2292cp-1 0x1.45f306dd2292cp-1 -0x1.b2995e81c3df2p-3 0x1.14aca4188f688p-1 "
         "-0x1.d8b83173edb10p+1 0x1.d8b83173edb10p+1 0x1.a26505a43b3f9p+1 -0x1.7ff6f1f055e64p+2 "
         "0x1.d8b83173edb08p+0 -0x1.628a2516f244ap+2 0x1.0785aea1d0112p+1 0x1.7ff6f1f055e73p+1"),
        ("0x1.45f306dd22924p-1 0x1.45f306dd22934p-1 -0x1.b2995e81c3dd9p-3 0x1.14aca4188f67bp-1 "
         "-0x1.d8b83173edb10p+1 0x1.d8b83173edb0ep+1 0x1.a26505a43b3fap+1 -0x1.7ff6f1f055e63p+2 "
         "0x1.d8b834b59972cp+0 -0x1.628a25e75d351p+2 0x1.0785ad00fa301p+1 0x1.7ff6f4b3fa38ep+1"),
        ("0x1.457ffe4063cbdp-1 0x1.46660b4bc2354p-1 -0x1.b10feb2eb7632p-3 0x1.13f3fa6500138p-1 "
         "-0x1.4db1c07619c92p+1 0x1.4d9821bb30aeep+1 0x1.177a4c4ed141dp+1 -0x1.09f4d80f577e0p+2 "
         "0x1.09812969ac40fp+10 -0x1.0a138634d6e43p+10 -0x1.08e11488596b8p+10 0x1.c2bbf065d2998p+10"),
        ("0x1.5a48ac328495dp-3 0x1.f177849e2c21ap-1 -0x1.d47523cce5410p-7 0x1.5bfe870137ec6p-5 "
         "-0x1.db8206f09162ap-5 0x1.3d0159f5b641cp-6 0x1.41b49c0d7e582p-7 -0x1.d95ba2fdfd4dap-6 "
         "0x1.4ba503141d6bcp-5 -0x1.46c3cab4a5b31p-6 -0x1.4ef5256ba7c78p-7 0x1.e689424d20595p-6"),
    ),
    2 ** 18: (
        ("0x1.ffff2e48a83a4p-1 0x1.47ae5796e9080p-9 -0x1.47ad4b2701100p-9 0x1.ffff2e4867cd7p-1 "
         "-0x1.47aeddcf4af9cp-9 0x1.00009d49f2932p-1 -0x1.fffc5045fe0efp-2 -0x1.47afa7238b6a9p-9 "
         "-0x1.0001d7df19dbbp-1 0x1.eb890d6167700p-10 0x1.70a57a7ae3850p-8 -0x1.0003afbd92a64p-1"),
        ("0x1.de517d0c336a2p-1 0x1.08dd9e24a161ep-2 -0x1.cd2e3d4d2e4c4p-3 0x1.dcaca345680dep-1 "
         "-0x1.1c9a7e8a180aep-2 0x1.1c9a7e8a180aep-1 -0x1.61277d862c829p-2 -0x1.383d0c0e38208p-2 "
         "-0x1.61277d862c828p-1 0x1.1233fbf051deap-2 0x1.61277d862c829p-1 -0x1.bce8ef89241fcp-1"),
        ("0x1.45f306dca4e95p-1 0x1.45f306dca4e85p-1 -0x1.b2995e7bdfea2p-3 0x1.14aca416e4beap-1 "
         "-0x1.0899e2497bfaap+2 0x1.0899e2497bfabp+2 0x1.dae098c38458dp+1 -0x1.afe89cff865a2p+2 "
         "0x1.0899c83c1de80p+1 -0x1.8ce6c6678aeedp+2 0x1.23c3923e93db4p+1 0x1.afe870c541431p+1"),
        ("0x1.45f306dca4e8dp-1 0x1.45f306dca4e8dp-1 -0x1.b2995e7bdfe86p-3 0x1.14aca416e4bddp-1 "
         "-0x1.0899e2497bfaap+2 0x1.0899e2497bfaap+2 0x1.dae098c38458ep+1 -0x1.afe89cff865a2p+2 "
         "0x1.0899e2497bfa8p+1 -0x1.8ce6d36e39f7ep+2 0x1.23c3783135c8bp+1 0x1.afe89cff8659ap+1"),
        ("0x1.45f306dca4e84p-1 0x1.45f306dca4e95p-1 -0x1.b2995e7bdfe66p-3 0x1.14aca416e4bcep-1 "
         "-0x1.0899e2497bfa8p+2 0x1.0899e2497bfa7p+2 0x1.dae098c38458ep+1 -0x1.afe89cff8659fp+2 "
         "0x1.0899fc56da0d6p+1 -0x1.8ce6e074e9010p+2 0x1.23c35e23d7b62p+1 0x1.afe8c939cb70ap+1"),
        ("0x1.457ffe4063742p-1 0x1.46660b4bc28cep-1 -0x1.b10feb2eb6047p-3 0x1.13f3fa64ff7eap-1 "
         "-0x1.4db1c060c1fbcp+1 0x1.4d9821a5da850p+1 0x1.177a4c3977d0dp+1 -0x1.09f4d7fd394e8p+2 "
         "0x1.09811f089729bp+10 -0x1.0a137bd483236p+10 -0x1.08e10a2682f0bp+10 0x1.c2bbdec6ae5eep+10"),
        ("0x1.5a48ac328495cp-3 0x1.f177849e2c21ap-1 -0x1.d47523cce5410p-7 0x1.5bfe870137ec5p-5 "
         "-0x1.db8206f09162ap-5 0x1.3d0159f5b641cp-6 0x1.41b49c0d7e584p-7 -0x1.d95ba2fdfd4dap-6 "
         "0x1.4ba503141d6bdp-5 -0x1.46c3cab4a5b32p-6 -0x1.4ef5256ba7c77p-7 0x1.e689424d20594p-6"),
    ),
}

# float.hex of sz, xx, yy, zz, d_sz, d_xx, d_yy, d_zz of ``correlators_thermo``
# and of ``susceptibility_thermo``, one row per coupling.  How the records are
# built and checked must not change a bit of any output.
THERMO_PINS = {
    0.005: (
        "0x1.ffff2e48a83a4p-1 0x1.47ae5796e351cp-9 -0x1.47ad4b27018a0p-9 "
        "0x1.ffff2e4867cd6p-1 -0x1.47aeddcf4dd4ap-9 0x1.00009d49f9084p-1 "
        "-0x1.fffc5045fbf22p-2 -0x1.47afa72390498p-9 0x1.8002c3cdae2bap-3"),
    0.3: (
        "0x1.f44726635042fp-1 0x1.36c74716bce7ep-3 -0x1.28a12925bcf97p-3 "
        "0x1.f413d158ef016p-1 -0x1.3e31415648ab6p-3 0x1.09290bc7e7391p-1 "
        "-0x1.ca71c6edfccc6p-2 -0x1.490ec84c44370p-3 0x1.a9f40b08c3c60p-3"),
    0.97: (
        "0x1.5c7cd146ec2b3p-1 0x1.2f1a70a5cef17p-1 -0x1.f148915f7ec08p-3 "
        "0x1.36cad2f230f24p-1 -0x1.278360e2a2301p+0 0x1.30a71c9fbef4ep+0 "
        "0x1.60f94ff683d5ep-1 -0x1.b0c8362af912bp+0 0x1.8ef6a6b9e6bd9p+0"),
    1.0 - 1e-3: (
        "0x1.4740551c33d41p-1 0x1.44a590977b97ap-1 -0x1.b6ef65874c5d1p-3 "
        "0x1.16bf10631d894p-1 -0x1.1cce5eb16f32fp+1 0x1.1d175a6e790c5p+1 "
        "0x1.cc56bcc4d332ap+0 -0x1.c0eafb1dca190p+1 0x1.8a37635294ab4p+2"),
    1.0 + 1e-3: (
        "0x1.44a5db41df153p-1 0x1.47400a84eb2cdp-1 -0x1.ae4285a7e8c31p-3 "
        "0x1.129a729aaa12ep-1 -0x1.1c8febcbfe4a3p+1 0x1.1c47255c077fap+1 "
        "0x1.cd192ba3dc896p+0 -0x1.c080f6f7f2548p+1 0x1.866a4246b9062p+2"),
    1.0 - 1e-6: (
        "0x1.45f3a5f4673ccp-1 0x1.45f267c4ccc8dp-1 -0x1.b29ba1e3d74abp-3 "
        "0x1.14ada91b842d7p-1 -0x1.1b12eccf6a1a1p+2 0x1.1b12ff5c9c926p+2 "
        "0x1.ffd286ed4da38p+1 -0x1.cf44e1ff3bfa0p+2 0x1.a58e9aecd9111p+4"),
    1.0 + 1e-6: (
        "0x1.45f267c60e2d3p-1 0x1.45f3a5f325daep-1 -0x1.b2971b17e6afbp-3 "
        "0x1.14ab9f142577fp-1 -0x1.1b10892660e02p+2 0x1.1b10769958ec3p+2 "
        "0x1.ffce0d5f1ba4cp+1 -0x1.cf40d39c3891bp+2 0x1.a585bba40de26p+4"),
    1.5: (
        "0x1.6c79ef99491e3p-2 0x1.c13129f0ab258p-1 -0x1.040f4e8e06bfcp-4 "
        "0x1.7589b04c283e5p-3 -0x1.1955f062ba17cp-2 0x1.771d4083a2ca8p-3 "
        "0x1.937b6d9f3c953p-4 -0x1.14dcb74267151p-2 0x1.860ce8f89635cp-5"),
    3.0: (
        "0x1.5a48ac3284973p-3 0x1.f177849e2c21cp-1 -0x1.d47523cce56c8p-7 "
        "0x1.5bfe870137f8dp-5 -0x1.db8206f091606p-5 0x1.3d0159f5b6420p-6 "
        "0x1.41b49c0d7e3dap-7 -0x1.d95ba2fdfd401p-6 0x1.d2d70d342c2fep-10"),
    30.0: (
        "0x1.111ac79dcb0e4p-6 0x1.ffdb9561b98cap-1 -0x1.235a20bd1454cp-13 "
        "0x1.b4fcd4693975ep-12 -0x1.23647eb5712aap-11 0x1.36d1983901800p-16 "
        "0x1.36dca722aaee6p-17 -0x1.d234de0f3c202p-16 0x1.4bdcce7d43f36p-23"),
}


def fd6(fn, x, h=1e-5):
    # 6th-order central difference; truncation stays below 1e-7 even where
    # the 2-point stencil would not.
    return (-fn(x - 3 * h) + 9 * fn(x - 2 * h) - 45 * fn(x - h)
            + 45 * fn(x + h) - 9 * fn(x + 2 * h) + fn(x + 3 * h)) / (60 * h)


def momentum_grid(n_sites):
    """Mode angles phi_q = 2 pi q / N for half-odd q in {-M, ..., M}, M = (N-1)/2:
    the N angles lie in (-pi, pi), symmetric under negation, never 0 or +-pi."""
    m = (n_sites - 1) / 2.0
    q = np.arange(-m, m + 1.0)
    return 2.0 * math.pi * q / n_sites


class TestMomentumGrid:
    def test_four_sites(self):
        phi = momentum_grid(4)
        expected = np.array([-3, -1, 1, 3]) * math.pi / 4
        np.testing.assert_allclose(phi, expected, atol=1e-15)

    def test_six_sites_minimum_angle(self):
        phi = momentum_grid(6)
        assert len(phi) == 6
        assert np.min(np.abs(phi)) == pytest.approx(math.pi / 6, abs=1e-15)

    @pytest.mark.parametrize("n", [4, 6, 64, 1000])
    def test_cosines_sum_to_zero(self, n):
        phi = momentum_grid(n)
        assert abs(math.fsum(np.cos(phi))) <= 1e-12

    @pytest.mark.parametrize("n", [4, 30, 256])
    def test_negation_symmetry_and_open_endpoints(self, n):
        phi = momentum_grid(n)
        assert len(phi) == n
        np.testing.assert_allclose(np.sort(-phi), np.sort(phi), atol=1e-15)
        assert np.all(np.abs(phi) > 0.0)
        assert np.all(np.abs(np.abs(phi) - math.pi) > 1e-12)


class TestChainSpec:
    @pytest.mark.parametrize("n,lam", [(5, 1.0), (2, 1.0), (0, 1.0), (64, -0.1),
                                       (64, math.inf), (64, math.nan), (6.5, 1.0)])
    def test_invalid(self, n, lam):
        with pytest.raises(ValueError):
            ChainSpec(n, lam)

    def test_valid_normalizes(self):
        spec = ChainSpec(np.int64(8), np.float64(0.5))
        assert spec.n_sites == 8 and spec.lam == 0.5

    def test_negative_zero_coupling_is_zero(self):
        # ChainSpec(8, -0.0) equals ChainSpec(8, 0.0) and hashes alike, so the
        # memo returns whichever record was asked for first; d_sz = -lam d_xx
        # gives each sign of zero its own bits unless lam is normalized.
        expected = _bits(_finite_curvature(ChainSpec(8, 0.0))[0])
        for order in ((0.0, -0.0), (-0.0, 0.0)):
            correlators_finite.cache_clear()
            for lam in order:
                assert _bits(correlators_finite(ChainSpec(8, lam))) == expected, order
        assert ChainSpec(8, -0.0).lam.hex() == "0x0.0p+0"


# Values that are not couplings, with the ValueError message that each entry
# taking a coupling gives for them.
NOT_COUPLINGS = {
    "str": ("0.5", "lam must be a real number, got '0.5'"),
    "none": (None, "lam must be a real number, got None"),
    "complex": (1j, "lam must be a real number, got 1j"),
    "array": (np.array(0.5), "lam must be a real number, got array(0.5)"),
    "nan": (math.nan, "lam must be finite and >= 0, got nan"),
    "inf": (math.inf, "lam must be finite and >= 0, got inf"),
    "negative": (-1.0, "lam must be finite and >= 0, got -1.0"),
    "tiny_negative": (-1e-300, "lam must be finite and >= 0, got -1e-300"),
}

COUPLING_ENTRIES = {
    "ChainSpec": lambda lam: ChainSpec(64, lam),
    "correlators_thermo": correlators_thermo,
    "susceptibility_thermo": susceptibility_thermo,
    "susceptibility": lambda lam: susceptibility(64, lam),
}


class TestOneCouplingRule:
    """Both regimes check a coupling with ChainSpec's rule.  The
    thermodynamic path used to take anything float() takes ('0.5' gave a
    value) and to raise a bare TypeError for None or a complex number."""

    @pytest.mark.parametrize("entry", COUPLING_ENTRIES.values(), ids=COUPLING_ENTRIES)
    @pytest.mark.parametrize("lam,message", NOT_COUPLINGS.values(), ids=NOT_COUPLINGS)
    def test_not_a_coupling(self, entry, lam, message):
        with pytest.raises(ValueError) as info:
            entry(lam)
        assert str(info.value) == message

    @pytest.mark.parametrize("lam", [2, np.float64(0.7), Fraction(7, 10)],
                             ids=["int", "float64", "fraction"])
    def test_real_number_gives_the_bits_of_its_float(self, lam):
        value = float(lam)
        assert ChainSpec(64, lam).lam.hex() == value.hex()
        assert _bits(correlators_finite(ChainSpec(64, lam))) == \
            _bits(correlators_finite(ChainSpec(64, value)))
        assert susceptibility(64, lam).hex() == susceptibility(64, value).hex()
        assert _bits(correlators_thermo(lam)) == _bits(correlators_thermo(value))
        assert susceptibility_thermo(lam).hex() == susceptibility_thermo(value).hex()


class TestFiniteCorrelators:
    def test_zero_coupling_polarized(self):
        c = correlators_finite(ChainSpec(1024, 0.0))
        assert c.sz == pytest.approx(1.0, abs=1e-14)
        assert c.xx == pytest.approx(0.0, abs=1e-14)
        assert c.yy == pytest.approx(0.0, abs=1e-14)
        assert c.zz == pytest.approx(1.0, abs=1e-14)
        assert c.d_sz == pytest.approx(0.0, abs=1e-14)
        assert c.d_xx == pytest.approx(0.5, abs=1e-14)
        assert c.d_yy == pytest.approx(-0.5, abs=1e-14)
        assert c.d_zz == pytest.approx(0.0, abs=1e-14)

    def test_critical_values_large_chain(self):
        n = 8192
        c = correlators_finite(ChainSpec(n, 1.0))
        for name in FIELDS:
            assert getattr(c, name) == pytest.approx(CRITICAL[name], abs=1.0 / n)

    @pytest.mark.parametrize("lam", [0.2, 0.8, 1.0, 1.3, 2.5])
    @pytest.mark.parametrize("n", [64, 1024])
    def test_magnitudes_and_zz_identity(self, lam, n):
        # zz is sz^2 - xx yy to the bit in every record the library builds,
        # from the scalar and the array passes alike.
        spec = ChainSpec(n, lam)
        records = [correlators_finite(spec), _finite_curvature(spec)[0]]
        passes = [_correlators_finite_array(n, np.array([lam]))]
        if lam != 1.0:
            records.append(correlators_thermo(lam))
            passes.append(_correlators_thermo_array(np.array([lam])))
        for fields, ok in passes:
            assert ok[0]
            records.append(CorrelatorSet(*(float(f[0]) for f in fields)))
        for c in records:
            for name in FIELDS:
                assert abs(getattr(c, name)) <= 1.0 + 1e-12
            assert c.zz == c.sz * c.sz - c.xx * c.yy

    @pytest.mark.parametrize("lam", [0.2, 0.8, 1.0, 1.3])
    @pytest.mark.parametrize("n", [64, 1024])
    def test_derivatives_match_finite_differences(self, lam, n):
        c = correlators_finite(ChainSpec(n, lam))
        for value, deriv in zip(FIELDS, DERIVS):
            fd = fd6(lambda x: getattr(correlators_finite(ChainSpec(n, x)), value), lam)
            assert abs(fd - getattr(c, deriv)) <= 1e-7

    @pytest.mark.parametrize("n", [4, 6, 12, 30, 64, 1000, 2 ** 16, 65538, 2 ** 18, 393222,
                                   2 ** 20])
    def test_half_angle_table_is_the_grid_upper_half(self, n):
        s = tfim_rfs.exact._half_angle_table(n)
        expected = np.sin(0.5 * momentum_grid(n)[n // 2:]) ** 2
        assert s.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [2 ** 16, 2 ** 18])
    def test_half_angle_table_allocates_one_array(self, n):
        # Built in place: one array of N/2 doubles, where the plain
        # expression allocated three.
        tracemalloc.start()
        try:
            tfim_rfs.exact._half_angle_table.__wrapped__(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        array = n // 2 * 8
        assert peak <= array + 64 * 1024, f"peaked at {peak / array:.3f} arrays of {array} bytes"

    def test_dispersion_positive_on_grid(self):
        # Why the finite sums need no omega > 0 check: the smallest table entry
        # is sin^2(pi/2N) > 0, so omega >= 2 sqrt(s) > 0 at lam = 1, and
        # omega >= |1 - lam| >= 2^-53 elsewhere.
        for n in (4, 12, 1024, 2 ** 20):
            s = tfim_rfs.exact._half_angle_table(n)
            assert float(s.min()) == pytest.approx(math.sin(math.pi / (2 * n)) ** 2, rel=1e-12)
            for lam in (1.0, 1.0 - 2.0 ** -53, 1.0 + 2.0 ** -52):
                c = correlators_finite(ChainSpec(n, lam))
                assert all(math.isfinite(getattr(c, name)) for name in FIELDS)

    @pytest.mark.parametrize("lam", [1e155, 1.7e308])
    def test_overflowing_gap_rejected(self, lam):
        # (1 - lam)^2 overflows: omega would be inf and every correlator 0.
        with pytest.raises(ValueError, match=re.escape(f"N=64, lam={lam}")):
            correlators_finite(ChainSpec(64, lam))
        with pytest.raises(ValueError, match="overflows"):
            susceptibility(64, lam)
        with pytest.raises(ValueError, match="overflows"):
            susceptibility_slope(64, lam)

    def test_largest_representable_gap_accepted(self):
        c = correlators_finite(ChainSpec(64, 1.34e154))
        assert c.xx == pytest.approx(1.0, abs=1e-12)

    def test_critical_magnetization_derivative_finite_difference(self):
        n = 8192
        fd = fd6(lambda x: correlators_finite(ChainSpec(n, x)).sz, 1.0)
        assert abs(fd - correlators_finite(ChainSpec(n, 1.0)).d_sz) <= 1e-7

    def test_critical_magnetization_derivative_log_growth(self):
        # d_sz tracks -(ln N)/pi up to an N-independent offset
        offsets = []
        for n in (2048, 8192, 32768):
            c = correlators_finite(ChainSpec(n, 1.0))
            offsets.append(c.d_sz + math.log(n) / math.pi)
        assert abs(offsets[0] - offsets[1]) < 0.01
        assert abs(offsets[1] - offsets[2]) < 0.01


def _plain_sums(n, lam):
    """sz, xx, yy, d_xx, d_yy, d2_xx, d2_yy as plain numpy expressions, one
    temporary array per operation."""
    s = tfim_rfs.exact._half_angle_table(n)
    gap = 1.0 - lam
    inv = 1.0 / np.sqrt(gap * gap + 4.0 * lam * s)
    sin_sq_inv3 = 4.0 * s * (1.0 - s) * inv * inv * inv
    d2xx_terms = -3.0 * (2.0 * s - gap) * sin_sq_inv3 * inv * inv
    cos_phi = 1.0 - 2.0 * s
    summands = (
        (gap + 2.0 * lam * s) * inv,
        (2.0 * s - gap) * inv,
        (2.0 * s * (1.0 - 4.0 * lam * (1.0 - s)) - gap) * inv,
        sin_sq_inv3,
        (2.0 * lam * (1.0 - 2.0 * s) - 1.0) * sin_sq_inv3,
        d2xx_terms,
        2.0 * cos_phi * sin_sq_inv3 + (2.0 * lam * cos_phi - 1.0) * d2xx_terms,
    )
    return [float(np.sum(t)) / len(s) for t in summands]


# Couplings at which every in-place summand must round as its plain
# expression does.  5e-324 and 1e-310 are subnormal; at 1e102 the product
# s (1 - s) / omega^3 is subnormal at N = 12, so the 4 of sin^2 phi = 4 s (1 - s)
# cannot be moved out of it.
PLAIN_LAMS = (0.0, 5e-324, 1e-310, 1e-300, 1e-9, 0.005, 0.7, 1.0 - 2.0 ** -52, 1.0,
              1.0 + 2.0 ** -52, 1.0003, 3.0, 1e8, 1e102, 1e150)


def _assert_plain(n):
    for lam in PLAIN_LAMS:
        c, (_, d2_xx, d2_yy, _) = _finite_curvature(ChainSpec(n, lam))
        got = [c.sz, c.xx, c.yy, c.d_xx, c.d_yy, d2_xx, d2_yy]
        assert [x.hex() for x in got] == [x.hex() for x in _plain_sums(n, lam)], (n, lam)


def _summing(fn):
    """``fn`` with the memo of correlators_finite cleared before each call, so
    that the kernel probes measure the momentum sums, not the memo."""
    def call(spec):
        correlators_finite.cache_clear()
        return fn(spec)
    return call


def _finite_array_pass(spec):
    """``_correlators_finite_array`` over the 41 couplings of the collapse
    window lam + w/N, w in [-10, 10], at spec's N and lam."""
    return _correlators_finite_array(spec.n_sites,
                                     spec.lam + np.linspace(-10.0, 10.0, 41) / spec.n_sites)


class TestFiniteSumsInPlace:
    # Up to 2^16 one block holds every mode; 65538 is the first size that is
    # split, and the sizes above it split into several blocks of uneven length.
    @pytest.mark.parametrize("n", [4, 6, 12, 64, 1000, 4096, 2 ** 16, 65538, 100006,
                                   2 ** 18, 393222])
    def test_equal_to_plain_expressions(self, n):
        _assert_plain(n)

    @pytest.mark.parametrize("block", [128, 1000])
    @pytest.mark.parametrize("n", [258, 1000, 4098, 32770])
    def test_block_tree_matches_pairwise_sum(self, n, block, monkeypatch):
        # Blocks down to numpy's pairwise leaf of 128 modes, of odd and even
        # lengths, still add up to np.sum over the whole array, bit for bit.
        monkeypatch.setattr(tfim_rfs.exact, "_BLOCK", block)
        _assert_plain(n)

    @pytest.mark.parametrize("n", sorted(FINITE_PINS))
    def test_pinned_bits(self, n):
        for lam, row in zip(PIN_LAMS, FINITE_PINS[n]):
            spec = ChainSpec(n, lam)
            c, second = _finite_curvature(spec)
            assert correlators_finite(spec) == c
            bits = [getattr(c, name).hex() for name in FIELDS + DERIVS]
            assert bits + [d.hex() for d in second] == row.split(), f"N={n}, lam={lam!r}"

    def test_interleaved_calls_do_not_alias(self):
        # The work arrays hold nothing between calls, and the shared table stays read-only.
        a, b = ChainSpec(2 ** 16, 0.9996), ChainSpec(2 ** 16, 1.5)
        summed = _summing(correlators_finite)
        first = _finite_curvature(a)
        assert _finite_curvature(b) != first
        assert summed(b) != first[0]
        assert _finite_curvature(a) == first
        assert summed(a) == first[0]
        assert not tfim_rfs.exact._half_angle_table(2 ** 16).flags.writeable

    def test_threads_keep_their_own_work_arrays(self):
        # More threads than cores, switching often: work arrays shared between
        # threads would mix one call's summands into another's sums.
        specs = [ChainSpec(2 ** 17, lam) for lam in (0.9996, 1.0, 1.5, 3.0)]
        expected = [_finite_curvature(spec) for spec in specs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(_finite_curvature, spec) for spec in specs * 5]
                got = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == expected * 5

    @pytest.mark.parametrize("fn", [correlators_finite, _finite_curvature])
    def test_calls_leave_no_garbage(self, fn):
        # A reference cycle per call (a recursive closure, say) leaves work to
        # the cyclic collector: one such cycle cost peak_scaling a 1.5 ms
        # collection, 3 % of its time.
        specs = [ChainSpec(512, 0.99), ChainSpec(2 ** 18, 0.9996)]
        fn = _summing(fn)
        for spec in specs:
            fn(spec)
        gc.collect()
        flags = gc.get_debug()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for spec in specs * 3:
                fn(spec)
            gc.collect()
            garbage = list(gc.garbage)
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert garbage == []

    @pytest.mark.parametrize("fn,n", [(correlators_finite, 2 ** 18), (_finite_curvature, 2 ** 18),
                                      (_finite_array_pass, 2 ** 18), (_finite_array_pass, 4096)],
                             ids=["correlators_finite", "_finite_curvature",
                                  "_finite_array_pass", "_finite_array_pass-4096"])
    def test_allocation_peak(self, fn, n):
        # A call in a new thread allocates that thread's three work arrays of
        # _BLOCK doubles; any temporary of N/2 doubles would be 4 such arrays.
        # The array pass takes its (couplings x modes) rows from the same
        # arrays: at N = 4096 a temporary of 16 x 2048 rows would be one array.
        # Its broadcasting ufuncs may also hold, for the length of one call,
        # an iterator buffer of np.getbufsize() doubles per broadcast operand
        # (up to two; numpy 2.4 does).
        spec = ChainSpec(n, 0.9996)
        buffers = 2 * np.getbufsize() * 8 if fn is _finite_array_pass else 0
        fn = _summing(fn)
        fn(spec)  # the momentum table is built on first use, outside the bound
        tracemalloc.start()
        try:
            with ThreadPoolExecutor(max_workers=1) as pool:
                pool.submit(fn, spec).result()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        array = tfim_rfs.exact._BLOCK * 8
        bound = 3 * array + 64 * 1024 + buffers
        assert peak <= bound, (f"{fn.__name__} peaked at {peak} bytes = "
                               f"{peak / array:.3f} arrays of {array} bytes; bound {bound}")


# Minor page faults of 20 calls each of correlators_finite and _finite_curvature
# at N = 2^18, and of the array pass over a collapse window at N = 4096 (three
# passes of up to 16 couplings x 2048 modes), after 2 warm-up calls, in a fresh
# interpreter.  The memo of correlators_finite is cleared before each of its
# calls, so each one sums.
_FAULT_PROBE = """
import json, resource
import numpy as np
from tfim_rfs.exact import ChainSpec, _correlators_finite_array, _finite_curvature, correlators_finite
def summed(spec):
    correlators_finite.cache_clear()
    return correlators_finite(spec)
window = 0.9996 + np.linspace(-10.0, 10.0, 41) / 4096
def array_pass(_spec):
    return _correlators_finite_array(4096, window)
spec = ChainSpec(2 ** 18, 0.9996)
rises = []
for fn in (summed, _finite_curvature, array_pass):
    for _ in range(2):
        fn(spec)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        fn(spec)
    rises.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(rises))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="counts minor page faults with getrusage")
def test_finite_sums_take_no_page_faults():
    # The block-sized work arrays are allocated once per thread and then
    # reused, so a warm call touches no new page.  Allocated per call, they
    # were trimmed and refaulted by glibc malloc: about 3 840 faults per 20
    # calls here, depending on what the heap held before.
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    rises = json.loads(proc.stdout)
    assert max(rises) <= 20, f"minor page faults per 20 calls: {rises}"


class TestFiniteMemo:
    @pytest.mark.parametrize("n", [12, 2 ** 16])
    def test_hit_is_the_first_record(self, n):
        correlators_finite.cache_clear()
        for lam in PLAIN_LAMS:
            first = correlators_finite(ChainSpec(n, lam))
            assert _bits(first) == _bits(_finite_curvature(ChainSpec(n, lam))[0]), lam
            assert correlators_finite(ChainSpec(n, lam)) is first

    def test_repeated_spec_is_one_miss_then_a_hit(self):
        # correlators_finite is the memo itself: no wrapper sits in between.
        correlators_finite.cache_clear()
        spec = ChainSpec(64, 0.75)
        first = correlators_finite(spec)
        assert correlators_finite.cache_info()[:2] == (0, 1)
        assert correlators_finite(ChainSpec(64, 0.75)) is first
        assert correlators_finite.cache_info()[:2] == (1, 1)

    def test_bounded(self):
        for k in range(200):
            correlators_finite(ChainSpec(12, 0.5 + k * 1e-3))
        info = correlators_finite.cache_info()
        assert info.maxsize == 64 and info.currsize <= 64

    def test_threads_get_the_serial_records(self):
        # More threads than cores, switching often, on a few shared specs, so
        # that misses on one spec race each other.
        specs = [ChainSpec(2 ** 16, lam) for lam in (0.9996, 1.0, 1.5, 3.0)]
        expected = [_bits(_finite_curvature(spec)[0]) for spec in specs]
        correlators_finite.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(correlators_finite, spec) for spec in specs * 8]
                got = [_bits(future.result(timeout=60)) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == expected * 8


@lru_cache(maxsize=None)
def _reference_table(reference, n):
    with reference.mp.workdps(reference.FINITE_DPS):
        return reference.mode_table(n)


class TestMpmathReference:
    @pytest.mark.parametrize("n,lam", [(512, 1.0), (4096, 1.0), (4096, 0.95),
                                       (4096, 1.003), (1024, 0.3), (1024, 2.5)])
    def test_correlators_and_chi(self, n, lam, reference):
        mp = reference.mp
        table = _reference_table(reference, n)
        c = correlators_finite(ChainSpec(n, lam))
        chi = susceptibility(n, lam)
        with mp.workdps(reference.FINITE_DPS):
            sz, xx, yy, d_sz, d_xx, d_yy = reference.correlators_finite(lam, table)
            expected = {
                "sz": sz, "xx": xx, "yy": yy, "zz": sz * sz - xx * yy,
                "d_sz": d_sz, "d_xx": d_xx, "d_yy": d_yy,
                "d_zz": 2 * sz * d_sz - d_xx * yy - xx * d_yy,
            }
            for name, value in expected.items():
                assert abs(getattr(c, name) - value) <= 1e-13 * abs(value), name
            ref_chi = reference.chi_from_correlators(sz, xx, yy, d_sz, d_xx, d_yy)
            assert abs(chi - ref_chi) <= 1e-13 * ref_chi

    # Below the peak (slope > 0), above it (slope < 0) and at lam = 1, where
    # the peak sits at 0.952, 0.997 and 0.999998 for N = 12, 64 and 4096.
    @pytest.mark.parametrize("n,lam", [
        *((n, lam) for n in (12, 64) for lam in (0.9, 0.99, 1.0, 1.05)),
        *((4096, lam) for lam in (0.99, 0.999995, 1.0, 1.003)),
    ])
    def test_susceptibility_slope(self, n, lam, reference):
        mp = reference.mp
        table = _reference_table(reference, n)
        slope = susceptibility_slope(n, lam)
        with mp.workdps(reference.FINITE_DPS):
            expected = mp.diff(lambda x: reference.chi_finite(x, table), lam)
        assert abs(slope - expected) <= 1e-12 * abs(expected)


class TestThermoCorrelators:
    def test_critical_point_exact(self):
        c = correlators_thermo(1.0)
        for name in FIELDS:
            assert getattr(c, name) == pytest.approx(CRITICAL[name], abs=1e-12)
        assert c.derivatives_divergent
        assert c.d_sz == -math.inf and c.d_zz == -math.inf
        assert c.d_xx == math.inf and c.d_yy == math.inf

    def test_zero_coupling(self):
        c = correlators_thermo(0.0)
        assert (c.sz, c.xx, c.yy, c.zz) == (1.0, 0.0, 0.0, 1.0)
        assert (c.d_sz, c.d_xx, c.d_yy, c.d_zz) == (0.0, 0.5, -0.5, 0.0)

    def test_matches_large_chain(self):
        fin = correlators_finite(ChainSpec(2 ** 16, 0.5))
        th = correlators_thermo(0.5)
        for name in FIELDS + DERIVS:
            assert abs(getattr(fin, name) - getattr(th, name)) <= 1e-6

    @pytest.mark.parametrize("n", [2 ** 8, 2 ** 10, 2 ** 12, 2 ** 14])
    def test_convergence_bound(self, n):
        fin = correlators_finite(ChainSpec(n, 0.5))
        th = correlators_thermo(0.5)
        assert abs(fin.sz - th.sz) <= 1.0 / n

    def test_convergence_monotone_to_roundoff(self):
        # the gap shrinks with N until it hits the double-precision floor
        th = correlators_thermo(0.5)
        gaps = [abs(correlators_finite(ChainSpec(n, 0.5)).sz - th.sz)
                for n in (2 ** 8, 2 ** 10, 2 ** 12, 2 ** 14)]
        for previous, current in zip(gaps, gaps[1:]):
            assert current <= max(previous, 1e-15)

    @pytest.mark.parametrize("lam", [0.3, 0.5, 0.9, 1.2, 2.0])
    def test_derivatives_match_finite_differences(self, lam):
        c = correlators_thermo(lam)
        for value, deriv in zip(FIELDS, DERIVS):
            fd = fd6(lambda x: getattr(correlators_thermo(x), value), lam)
            assert abs(fd - getattr(c, deriv)) <= 1e-9

    @pytest.mark.parametrize("lam", [0.4, 0.8, 1.1, 1.7])
    def test_magnetization_derivative_closed_form(self, lam):
        # independent reduction: d sz / d lam
        #   = (lam+1)/(pi lam) E(k) - (lam^2+1)/(pi lam (lam+1)) K(k)
        from tfim_rfs import elliptic_e, elliptic_k
        k = 2 * math.sqrt(lam) / (1 + lam)
        expected = ((lam + 1) / (math.pi * lam) * elliptic_e(k)
                    - (lam * lam + 1) / (math.pi * lam * (lam + 1)) * elliptic_k(k))
        assert correlators_thermo(lam).d_sz == pytest.approx(expected, rel=1e-12)

    def test_near_critical_log_divergence(self):
        lam = 0.999
        asym = -math.log(1.0 / abs(1.0 - lam)) / math.pi
        assert abs(correlators_thermo(lam).d_sz - asym) < 0.1

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError):
            correlators_thermo(-0.2)

    def test_one_agm_per_coupling(self):
        # K(k) and E(k) share one run of the AGM loop.  The moduli differ
        # from each coupling to the next, so no call can reuse the one before.
        agm_code = inspect.unwrap(tfim_rfs.elliptic._agm).__code__
        runs = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is agm_code:
                runs.append(frame.f_locals["k"])

        counts = []
        for lam in (0.3, 0.9, 1.0 - 1e-3, 1.0 + 1e-3, 1.0 - 1e-6, 1.2, 3.0, 0.3):
            before, previous = len(runs), sys.getprofile()
            sys.setprofile(profile)
            try:
                correlators_thermo(lam)
            finally:
                sys.setprofile(previous)
            counts.append(len(runs) - before)
        assert counts == [1] * 8, runs

    @pytest.mark.parametrize("lam", [1.0 - 2.0 ** -52, 1.0 - 1e-10, 1.0 + 1e-10, 1.0 + 1e-8])
    def test_modulus_rounding_to_one_names_the_coupling(self, lam):
        with pytest.raises(ValueError, match="rounds to 1") as info:
            correlators_thermo(lam)
        assert f"lam={lam!r}" in str(info.value)
        assert f"|1 - lam| = {abs(1.0 - lam):.3g}" in str(info.value)


# |1 - lam| on both sides of the critical point.
_CONVERGENCE_GAPS = (0.01, 0.015, 0.02, 0.03, 0.05, 0.1, 0.3, 0.5)


@pytest.mark.parametrize("n", [2 ** 10, 2 ** 12, 2 ** 14, 2 ** 16])
def test_finite_size_convergence_rate(n):
    # Off criticality the ring approaches the thermodynamic limit
    # exponentially in x = N |ln lam| = N / xi; the two lam-derivatives in chi
    # bring down up to x^2.  The grid keeps x >= 10, where that term is below
    # 5e-3.  The 1e-11 floor is the thermodynamic path's own error near
    # |1 - lam| = 0.01.  Largest measured ratio to the bound: 0.22.
    for lam in (1.0 + sign * gap for gap in _CONVERGENCE_GAPS for sign in (-1.0, 1.0)):
        x = n * abs(math.log(lam))
        assert x >= 10.0
        chi_inf = susceptibility_thermo(lam)
        gap = abs(susceptibility(n, lam) - chi_inf)
        assert gap <= (x * x * math.exp(-x) + 1e-11) * chi_inf, (lam, x, gap / chi_inf)


class TestThermoPinnedBits:
    @pytest.mark.parametrize("lam", sorted(THERMO_PINS))
    def test_pinned_bits(self, lam):
        c = correlators_thermo(lam)
        bits = [getattr(c, name).hex() for name in FIELDS + DERIVS]
        assert bits + [susceptibility_thermo(lam).hex()] == THERMO_PINS[lam].split()

    @pytest.mark.parametrize("lam,error", [
        (1.0 - 1e-10, ValueError),       # k rounds to 1
        (1e-9, ConsistencyError),        # cancellation near 0 makes block 2 indefinite
        (1000.0, SingularBlockError),    # det_i below 1e-12
    ])
    def test_pinned_exception_type(self, lam, error):
        with pytest.raises(Exception) as info:
            susceptibility_thermo(lam)
        assert type(info.value) is error


class TestLogDivergenceCoefficients:
    def test_xx_yy_combination_at_criticality(self):
        # d_xx + d_yy grows like (2/pi) ln N; d_xx - d_yy converges to 4/(3 pi)
        sizes = [2 ** k for k in range(10, 15)]
        sums = [correlators_finite(ChainSpec(n, 1.0)) for n in sizes]
        slope = np.polyfit(np.log(sizes), [c.d_xx + c.d_yy for c in sums], 1)[0]
        assert slope == pytest.approx(2 / math.pi, rel=0.02)
        assert sums[-1].d_xx - sums[-1].d_yy == pytest.approx(4 / (3 * math.pi), abs=1e-6)


@pytest.mark.parametrize("extra", [field(kw_only=True), field(default_factory=float),
                                   field(default=0.0, init=False)],
                         ids=["kw_only", "default_factory", "init_false"])
def test_slot_init_rejects_fields_it_cannot_store(extra):
    # The slot stores take plain positional fields only.
    record = make_dataclass("Record", [("a", float), ("b", float, extra)], frozen=True, slots=True)
    with pytest.raises(TypeError, match="_slot_init supports plain positional fields only: Record"):
        _slot_init(record)


class TestCorrelatorSetValidation:
    def test_magnitude_violation(self):
        with pytest.raises(ValueError):
            CorrelatorSet(1.5, 0.0, 0.0, 2.25, 0, 0, 0, 0)

    def test_record_off_the_wick_identity_is_checked_by_positivity(self):
        # zz = sz^2 - xx yy is how the library computes zz, not a condition on
        # a valid state: a record off it is built, and the RDM's positivity
        # check is what rejects an invalid one.
        off_identity = CorrelatorSet(0.5, 0.1, 0.1, 0.3, 0, 0, 0, 0)
        assert off_identity.zz != off_identity.sz ** 2 - off_identity.xx * off_identity.yy
        assert rfs_closed_form(build_rdm(off_identity)).chi == 0.0
        invalid = CorrelatorSet(0.5, 0.1, 0.1, 0.9, 0, 0, 0, 0)
        with pytest.raises(ConsistencyError, match=r"RDM block 2 .* smallest eigenvalue -2\.500e-02"):
            build_rdm(invalid)

    def test_unflagged_infinite_derivative(self):
        # Nothing flags a divergence: an infinite derivative is read off the
        # values, and no finite derivative matrix is built from it.
        c = CorrelatorSet(0.5, 0.1, 0.1, 0.24, math.inf, 0, 0, 0)
        assert c.derivatives_divergent
        with pytest.raises(ValueError):
            build_rdm(c)
        assert correlators_thermo(1.0).derivatives_divergent

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1.0 + 2e-12])
    @pytest.mark.parametrize("field", range(4))
    def test_non_finite_or_large_value_rejected(self, field, bad):
        values = [0.5, 0.1, 0.1, 0.24]
        values[field] = bad
        message = f"correlator magnitudes must be <= 1, got {tuple(values)}"
        with pytest.raises(ValueError, match=re.escape(message)):
            CorrelatorSet(*values, 0, 0, 0, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", range(4))
    def test_any_non_finite_derivative_is_divergent(self, field, bad):
        derivatives = [0.1, -0.2, 0.3, -0.4]
        finite = CorrelatorSet(0.5, 0.1, 0.1, 0.24, *derivatives)
        assert not finite.derivatives_divergent
        derivatives[field] = bad
        divergent = CorrelatorSet(0.5, 0.1, 0.1, 0.24, *derivatives)
        assert divergent.derivatives_divergent
