import itertools
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import gtsreal
from gtsreal import lines
from gtsreal.cli import _parser, main
from gtsreal.covers import ess_finite_on, union_of
from gtsreal.lines import ALL_SETS, CORPUS, FB, LB, NAT_BOUNDED, UB, UF_SMALL, probe_corpus
from gtsreal.queries import EXPRESSIONS, MAX_NESTING, QUERIES, ParseError, parse
from gtsreal.report import (
    _section_identities,
    _section_pt,
    _section_refuters,
    _section_subsumption,
    _section_wls,
    corpus_verify,
    run,
)


# One document with every query kind and every declaration form, and its
# machine report byte for byte.
ALL_KINDS_DOC = """\
set A = union(interval(closed 0, open 1), point 2, points(5, 7/2))
set B = intersect(complement(A), interval(open -3, closed 3))
set C = difference(closure(interval(open 0, open 1), sorg_r), interior(point 0, nat))
set T = tail(left, interval(open 0, open 1/2), 1, 0)
family P = periodic(interval(open 0, open 2), 1, all)
family Q = split(0, periodic(interval(open 0, open 1), 1, upto 0), finite(interval(open -1, open 5)))
family R = restricted(periodic(interval(open 0, open 2), 1, from 0), interval(closed 0, open 5))
family S = periodic(point 0, 1, span -2 2)
family W = fan(down, 0, 1)
metric M = conj(rho_S)
metric FP = float_paper(d_n_plus)
bornology SYM = schema(closed affine(-1, -1), closed affine(1, 1))
bornology UBS = schema(open -inf, open affine(0, 1))
bornology MB = metric_bounded(d_n)
map G = affine(2, 1)
map H = pieces(breaks(0), piece(1, 0), piece(1, 1))
collection PSI = collection(finite(interval(open 0, open 2)), finite(interval(open 0, open 1)), finite(interval(open 1, open 2)))
collection PSIY = collection(finite(interval(open 0, open 2))) in interval(closed -1, closed 3)
query normalize A
query boundedness T
query subset B A
query equal A union(A, B)
query contains T -3/4
query sample A from -1 to 4 step 1/2
query closure interval(open 0, open 1) sorg_l
query interior interval(closed 0, closed 1) upper
query eval M 0 1/2
query eval FP 0 1
query ball rho_S at 0 radius 1/2
query nbhd d_n C delta 1/4
query bounded_set rho_u interval(open -inf, closed 0)
query topology_of conj(rho_u)
query union_of Q
query members finite(interval(open 0, open 1), point 3)
query members P
query ess_finite S
query ess_finite P
query ess_finite_on P interval(closed 0, closed 5)
query locally_ess_finite R
query full_ring reals of (interval(closed 0, open 1), interval(closed 1, open 2))
query full_ring interval(closed 0, closed 1) of ()
query gen_topology (interval(open 0, open 2), interval(open 1, open 3))
query gen_topology ()
query gen_topology_member (interval(open 0, open 2), interval(open 1, open 3)) interval(open 1, open 2)
query ef_member P nat nat_bounded
query member_generated finite(interval(open 0, open 1), interval(open 1, open 2)) PSI 1
query member_generated finite(interval(open 0, open 1)) PSIY 2
query op_member standard/lst interval(open 0, open 1)
query cov_member standard/ut P
query sm_member standard/uf T
query cb_member sorgenfrey/lst interval(closed 0, open 1)
query acb_member standard/om interval(closed 0, closed 1)
query pt_of standard/lom
query bornology_member UBS interval(open -inf, closed 0)
query bornology_member MB closure(interval(closed 0, open 1), nat)
query proper_check ub upper lower 16
query proper_check lb upper lower 16
query base_check fb sorg_r
query chain_check d_n SYM delta 1/2 upto 64
query chain_check d_n_plus SYM delta 1/8 upto 64
query chain_search d_n SYM upto 16
query uniform_chain d_n_plus UBS upto 16
query metrizable standard/lst nat_bounded d_n
query metrizable standard/ut fb d_n
query strict_cont_refute G standard/lst standard/lst (P, finite(interval(open 0, open 1)))
query strict_cont_refute H standard/lst standard/lst (finite(interval(open 1/2, open 3/2)))
query axiom_probe standard/om
query initial_member maps(G, H) borns(ub, nat_bounded) interval(closed 0, closed 1)
query oracle_ess_finite S window -2 2 interval(closed -1, closed 1) max 8
query oracle_ess_finite finite(interval(open 0, open 1), interval(open 0, open 2)) window 0 0 interval(closed 0, closed 1) max 4
"""

ALL_KINDS_REPORT = """\
gtsreal-report-v3
caps none
q000|normalize|ok|[0, 1) u {2} u {7/2} u {5}
q001|boundedness|ok|bounded=false above=true below=false finite=false
q002|subset|ok|false
q003|equal|ok|false
q004|contains|ok|true
q005|sample|ok|[0, 1/2, 2, 7/2]
q006|closure|ok|(0, 1]
q007|interior|ok|{}
q008|eval|ok|1
q009|eval|ok|1.0
q010|ball|ok|[0, 1/2)
q011|nbhd|ok|(-1/4, 5/4)
q012|bounded_set|ok|true
q013|topology_of|ok|lower
q014|union_of|ok|(-inf, -4) u (-4, -3) u (-3, -2) u (-2, -1) u (-1, 5)
q015|members|ok|[(0, 1), {3}]
q016|members|ok|not finitely enumerable
q017|ess_finite|ok|essentially_finite witness_size=5
q018|ess_finite|ok|not essentially finite: trace K n UF is unbounded while every member is bounded
q019|ess_finite_on|ok|essentially_finite witness_size=10
q020|locally_ess_finite|ok|true
q021|full_ring|ok|[(-inf, +inf), [0, 1), [0, 2), [1, 2), {}]
q022|full_ring|ok|[[0, 1], {}]
q023|gen_topology|ok|[(-inf, +inf), (0, 2), (0, 3), (1, 2), (1, 3), {}]
q024|gen_topology|ok|[(-inf, +inf), {}]
q025|gen_topology_member|ok|true
q026|ef_member|ok|true
q027|member_generated|ok|found=true depth=1
q028|member_generated|ok|found=false depth=2
q029|op_member|ok|true
q030|cov_member|ok|true
q031|sm_member|ok|false
q032|cb_member|ok|false
q033|acb_member|ok|true
q034|pt_of|ok|standard/lst
q035|bornology_member|ok|true
q036|bornology_member|ok|true
q037|proper_check|ok|PROPER
q038|proper_check|ok|IMPROPER at n=0 closure=(-inf, +inf)
q039|base_check|ok|false
q040|chain_check|ok|pass (uniform, delta=1/2)
q041|chain_check|ok|fail_at(1) missing=(-19/5, -3) delta=1/8
q042|chain_search|ok|pass (uniform, delta=1)
q043|uniform_chain|ok|pass (uniform, delta=1)
q044|metrizable|ok|CONSISTENT
q045|metrizable|ok|INCONSISTENT part=bornology: probe [0, 1]: d-bounded but outside the bornology
q046|strict_cont_refute|ok|UNREFUTED
q047|strict_cont_refute|ok|REFUTED witness=finite{(1/2, 3/2)}
q048|axiom_probe|ok|all pass (122 checks)
q049|initial_member|ok|true
q050|oracle_ess_finite|ok|true
q051|oracle_ess_finite|ok|true
summary pass=52 fail=0 total=52
"""


# Nested family shapes (split of restricted, restricted of split, restricted
# of restricted, restricted of fan, split of split, periodic families with
# from/upto/span ranges) through every cover query, and the machine report
# byte for byte.
NESTED_FAMILIES_DOC = """\
family SR = split(0, restricted(periodic(interval(open 0, open 2), 1, all), interval(open -5, open 5)), finite(interval(open -1, open 3), interval(open 2, open 4)))
family RS = restricted(split(1/2, periodic(interval(open 0, open 3/2), 1, upto 3), periodic(interval(closed 0, open 1/2), 1/2, from -2)), interval(closed -3, closed 4))
family RR = restricted(restricted(periodic(interval(open 0, open 2), 1, from 0), interval(closed 0, open 10)), interval(open 3, closed 20))
family RF = restricted(fan(down, 0, 1), interval(open -inf, open 1/2))
family RU = restricted(fan(up, 0, 1), interval(open 0, open 5))
family PF = periodic(interval(open 0, open 3), 2, from -1)
family PU = periodic(interval(open -1, open 1), 3/2, upto 2)
family PS = periodic(interval(closed 0, open 1), 1, span -3 3)
family NR = restricted(periodic(interval(open -inf, open 0), 1, all), interval(open -2, open 3))
family SN = split(1, periodic(interval(open -inf, open 0), 1, upto 4), periodic(interval(open 0, open inf), 1, from -4))
family RSU = restricted(split(0, periodic(interval(open 0, open 2), 1, all), fan(down, 2, 3)), interval(open -inf, open 5/2))
family RRU = restricted(restricted(periodic(interval(open 0, open 2), 1, all), interval(open 0, open inf)), interval(open -inf, open 7))
family SF = split(0, fan(up, -1, 0), finite(interval(open 0, open 1)))
family SS = split(0, split(-2, finite(interval(open -5, open -1)), PF), RS)
query union_of SR
query union_of RS
query union_of RR
query union_of RF
query union_of RU
query union_of PF
query union_of PU
query union_of PS
query union_of NR
query union_of SN
query union_of RSU
query union_of RRU
query members SR
query members RS
query members RR
query members RF
query members PF
query members PS
query members NR
query members SN
query members RRU
query members restricted(PU, interval(closed -2, closed 2))
query members restricted(periodic(interval(open 0, open inf), 1/2, from -3), interval(open -1, closed 1))
query ess_finite SR
query ess_finite RS
query ess_finite RR
query ess_finite RF
query ess_finite RU
query ess_finite PF
query ess_finite PU
query ess_finite PS
query ess_finite NR
query ess_finite SN
query ess_finite RSU
query ess_finite RRU
query ess_finite_on SR interval(closed -4, closed 4)
query ess_finite_on RS reals
query ess_finite_on RR interval(open 2, open 30)
query ess_finite_on RF interval(closed -1, closed 1/4)
query ess_finite_on RU interval(closed 1/8, closed 2)
query ess_finite_on RU interval(open 0, closed 2)
query ess_finite_on PF interval(closed -10, closed 10)
query ess_finite_on PU interval(closed -20, closed 20)
query ess_finite_on PS interval(open -inf, closed 0)
query ess_finite_on SN interval(closed -7, closed 9)
query ess_finite_on SN interval(open -inf, closed 0)
query ess_finite_on RSU interval(closed -3, closed 9/4)
query ess_finite_on RRU interval(closed 1/2, closed 6)
query ess_finite_on RRU tail(right, interval(closed 0, open 1/2), 1, 0)
query locally_ess_finite SR
query locally_ess_finite RS
query locally_ess_finite RR
query locally_ess_finite RF
query locally_ess_finite RU
query locally_ess_finite PF
query locally_ess_finite SN
query locally_ess_finite RSU
query locally_ess_finite restricted(RSU, interval(open -inf, closed 2))
query locally_ess_finite restricted(fan(up, 0, 1), interval(closed 1/2, open inf))
query ef_member SR nat nat_bounded
query ef_member RS nat fb
query ef_member RR nat ub
query ef_member RF nat nat_bounded
query ef_member RF nat ub
query ef_member RU nat nat_bounded
query ef_member PF nat lb
query ef_member PU nat ub
query ef_member PS sorg_r all_sets
query ef_member NR nat fb
query ef_member SN nat ub
query ef_member SN nat lb
query ef_member RSU nat fb
query ef_member RRU nat nat_bounded
query ef_member RRU upper ub
query ef_member finite(interval(open 0, open inf)) upper ub
query cov_member standard/ut SR
query cov_member standard/om RS
query cov_member sorgenfrey/ut RS
query cov_member standard/lom RR
query cov_member standard/st RF
query cov_member standard/lst RU
query cov_member standard/l_plus_om PF
query cov_member standard/l_minus_om PU
query cov_member sorgenfrey/om PS
query cov_member standard/rom NR
query cov_member standard/uu SN
query cov_member standard/lst RSU
query cov_member standard/slom RRU
query cov_member standard/ul restricted(periodic(interval(open 0, open inf), 1, all), interval(open -inf, open 3))
query cov_member standard/uf restricted(periodic(interval(open 0, open inf), 1, all), interval(open -inf, open 3))
query cov_member standard/ut restricted(periodic(interval(open 0, open 1), 1/2, all), interval(open 0, open inf))
query cov_member standard/ut restricted(periodic(interval(open 0, open 1), 1/2, all), interval(closed 1, open inf))
query cov_member sorgenfrey/ut restricted(periodic(interval(closed 0, open 1), 1/2, all), interval(closed 1, open 8))
query union_of SF
query union_of SS
query members SS
query members restricted(SF, interval(open 0, open 2))
query ess_finite SF
query ess_finite SS
query ess_finite_on SF interval(closed -1/2, closed 1/2)
query ess_finite_on SS interval(closed -6, closed 6)
query locally_ess_finite SF
query locally_ess_finite restricted(SF, interval(open -1/2, open 1/2))
query ef_member SF nat nat_bounded
query ef_member SF nat ub
query ef_member SS nat nat_bounded
query cov_member standard/lst SF
query cov_member standard/lom restricted(SF, interval(open -1/2, open 1/2))
query cov_member standard/om SS
query oracle_ess_finite PF window -3 3 interval(closed 0, closed 4) max 8
query oracle_ess_finite PU window -3 3 interval(closed 0, closed 4) max 8
"""

NESTED_FAMILIES_REPORT = """\
gtsreal-report-v3
caps none
q000|union_of|ok|(-5, 4)
q001|union_of|ok|[-3, 4]
q002|union_of|ok|(3, 10)
q003|union_of|ok|(-inf, 1/2)
q004|union_of|ok|(0, 5)
q005|union_of|ok|(-2, +inf)
q006|union_of|ok|(-inf, 4)
q007|union_of|ok|[-3, 4)
q008|union_of|ok|(-2, 3)
q009|union_of|ok|(-inf, +inf)
q010|union_of|ok|(-inf, 5/2)
q011|union_of|ok|(0, 7)
q012|members|ok|[(-1, 0), (-2, 0), (-3, -1), (-4, -2), (-5, -3), (-5, -4), (2, 4), [0, 3)]
q013|members|ok|[(-1, 1/2), (-2, -1/2), (-3, -3/2), (0, 1/2), [-3, -5/2), [1, 3/2), [1/2, 1), [2, 5/2), [3, 7/2), [3/2, 2), [5/2, 3), [7/2, 4), {4}]
q014|members|ok|[(3, 4), (3, 5), (4, 6), (5, 7), (6, 8), (7, 9), (8, 10), (9, 10)]
q015|members|ok|not finitely enumerable
q016|members|ok|not finitely enumerable
q017|members|ok|[[-1, 0), [-2, -1), [-3, -2), [0, 1), [1, 2), [2, 3), [3, 4)]
q018|members|ok|[(-2, -1), (-2, 0), (-2, 1), (-2, 2), (-2, 3)]
q019|members|ok|not finitely enumerable
q020|members|ok|[(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 7), (6, 7)]
q021|members|ok|[(-1, 1), (1/2, 2], [-2, -1/2)]
q022|members|ok|[(-1, 1], (-1/2, 1], (0, 1], (1/2, 1]]
q023|ess_finite|ok|essentially_finite witness_size=8
q024|ess_finite|ok|essentially_finite witness_size=13
q025|ess_finite|ok|essentially_finite witness_size=8
q026|ess_finite|ok|essentially_finite witness_size=1
q027|ess_finite|ok|not essentially finite: trace accumulates at 0 but every ray stops short of it
q028|ess_finite|ok|not essentially finite: trace K n UF is unbounded while every member is bounded
q029|ess_finite|ok|not essentially finite: trace K n UF is unbounded while every member is bounded
q030|ess_finite|ok|essentially_finite witness_size=7
q031|ess_finite|ok|essentially_finite witness_size=1
q032|ess_finite|ok|essentially_finite witness_size=2
q033|ess_finite|ok|not essentially finite: trace K n UF is unbounded while every member is bounded
q034|ess_finite|ok|essentially_finite witness_size=8
q035|ess_finite_on|ok|essentially_finite witness_size=8
q036|ess_finite_on|ok|essentially_finite witness_size=13
q037|ess_finite_on|ok|essentially_finite witness_size=8
q038|ess_finite_on|ok|essentially_finite witness_size=1
q039|ess_finite_on|ok|essentially_finite witness_size=1
q040|ess_finite_on|ok|not essentially finite: trace accumulates at 0 but every ray stops short of it
q041|ess_finite_on|ok|essentially_finite witness_size=8
q042|ess_finite_on|ok|essentially_finite witness_size=18
q043|ess_finite_on|ok|essentially_finite witness_size=7
q044|ess_finite_on|ok|essentially_finite witness_size=2
q045|ess_finite_on|ok|essentially_finite witness_size=1
q046|ess_finite_on|ok|essentially_finite witness_size=7
q047|ess_finite_on|ok|essentially_finite witness_size=8
q048|ess_finite_on|ok|essentially_finite witness_size=8
q049|locally_ess_finite|ok|true
q050|locally_ess_finite|ok|true
q051|locally_ess_finite|ok|true
q052|locally_ess_finite|ok|true
q053|locally_ess_finite|ok|false
q054|locally_ess_finite|ok|true
q055|locally_ess_finite|ok|true
q056|locally_ess_finite|ok|true
q057|locally_ess_finite|ok|true
q058|locally_ess_finite|ok|true
q059|ef_member|error|PreconditionError: family member [0, 3) is outside L
q060|ef_member|error|PreconditionError: family member [-3, -5/2) is outside L
q061|ef_member|ok|true
q062|ef_member|ok|true
q063|ef_member|ok|true
q064|ef_member|ok|false
q065|ef_member|ok|false
q066|ef_member|ok|false
q067|ef_member|ok|true
q068|ef_member|ok|true
q069|ef_member|error|PreconditionError: family member [1, +inf) is outside L
q070|ef_member|error|PreconditionError: family member [1, +inf) is outside L
q071|ef_member|error|PreconditionError: family member [0, 5/2) is outside L
q072|ef_member|ok|true
q073|ef_member|error|PreconditionError: family member (0, 1) is outside L
q074|ef_member|error|PreconditionError: family member (0, +inf) is outside L
q075|cov_member|ok|false
q076|cov_member|ok|false
q077|cov_member|ok|false
q078|cov_member|ok|true
q079|cov_member|ok|true
q080|cov_member|ok|false
q081|cov_member|ok|true
q082|cov_member|ok|true
q083|cov_member|ok|true
q084|cov_member|ok|true
q085|cov_member|ok|false
q086|cov_member|ok|false
q087|cov_member|ok|true
q088|cov_member|ok|false
q089|cov_member|ok|false
q090|cov_member|ok|true
q091|cov_member|ok|false
q092|cov_member|ok|true
q093|union_of|ok|(-1, 0) u (0, 1)
q094|union_of|ok|(-5, -2) u (-2, 4]
q095|members|ok|[(-2, 0), (-5, -2), (0, 1/2), [0, 1/2), [1, 3/2), [1/2, 1), [2, 5/2), [3, 7/2), [3/2, 2), [5/2, 3), [7/2, 4), {4}]
q096|members|ok|[(0, 1)]
q097|ess_finite|ok|not essentially finite: trace accumulates at -1 but every ray stops short of it
q098|ess_finite|ok|essentially_finite witness_size=12
q099|ess_finite_on|ok|essentially_finite witness_size=2
q100|ess_finite_on|ok|essentially_finite witness_size=12
q101|locally_ess_finite|ok|false
q102|locally_ess_finite|ok|true
q103|ef_member|ok|false
q104|ef_member|ok|false
q105|ef_member|error|PreconditionError: family member [0, 1/2) is outside L
q106|cov_member|ok|false
q107|cov_member|ok|true
q108|cov_member|ok|false
q109|oracle_ess_finite|ok|true
q110|oracle_ess_finite|ok|true
summary pass=103 fail=8 total=111
"""


# Malformed documents that must exit 2 with a parse error, never a traceback.
MALFORMED = {
    "ends-inside-list": "set A = union(empty",
    "ends-inside-breaks": "map M = pieces(breaks(1",
    "ends-inside-schema": "bornology B = schema(closed ",
    "reversed-interval": "set A = interval(closed 2, closed 1)",
    "fan-side": "family F = fan(sideways, 0, 1)",
    "zero-period": "family F = periodic(point 0, 0, all)",
    "empty-span": "family F = periodic(point 0, 1, span 3 1)",
    "zero-denominator": "set A = points(1, 1/0)",
    "infinite-collection": "collection C = collection(periodic(point 0, 1, all))",
    "deep-nesting": "set A = " + "complement(" * 3000 + "empty" + ")" * 3000,
    # longer than Python's int-string limit of 4300 digits
    "long-rational": "set A = point " + "1" * 5000,
    "long-integer": "query chain_check d_n fb delta 1/2 upto " + "9" * 5000,
}

# Exact tokenizer and parser diagnostics: (document, ParseError text).
DIAGNOSTICS = {
    "after-tab": ("set A =\t\tpoint 1 @", "1:18: unexpected character '@'"),
    "after-comment-line": ("# heading\nset A = reals  # trailing\nquery subset A $A",
                           "3:16: unexpected character '$'"),
    "first-character": ("@", "1:1: unexpected character '@'"),
    "non-ascii": ("set A = reals\nset B = \u00e9", "2:9: unexpected character '\u00e9'"),
    "carriage-return": ("set A = reals\r\nquery subset A A",
                        "1:14: unexpected character '\\r'"),
    "semicolon-separator": ("set A = reals;set A = empty",
                            "1:19: duplicate declaration of 'A'"),
    "newline-separator": ("set A = reals\n  query frobnicate A",
                          "2:9: unknown query 'frobnicate'"),
    "empty-statements": ("set A = reals\n;; query subset A B",
                         "2:19: unknown identifier 'B' (expected a set)"),
    "statement-run-on": ("set A = reals reals",
                         "1:15: expected end of statement, found 'reals'"),
    "ninf-before-punct": ("set A = interval(open -inf,open -inf)",
                          "1:37: degenerate interval must be closed on both sides"),
    "ninf-after-punct": ("query eval rho_S -inf,0", "1:18: infinite value not allowed here"),
    # a closed bracket on an infinite end reads as open, at either end
    "closed-ninf-upper-end": ("set A = interval(closed 0, closed -inf)",
                              "1:39: empty interval: lo=0 > hi=-inf"),
    "closed-inf-lower-end": ("set A = interval(closed inf, closed 3)",
                             "1:38: empty interval: lo=inf > hi=3"),
    "ninf-glued": ("set A = interval(open -infx, open 0)",
                   "1:23: unexpected character '-'"),
    "end-inside-list": ("set A = points(1, 2,", "1:20: unexpected end of input"),
    "end-inside-list-line-2": ("set A = reals\nset B = union(A,",
                               "2:16: unexpected end of input"),
    "newline-inside-list": ("set A = points(1,\n2,\n",
                            "1:18: expected a rational, found ';'"),
    "zero-denominator": ("set A = points(1, 1/0)", "1:19: zero denominator in '1/0'"),
    "negative-zero-denominator": ("query contains reals -3/00",
                                  "1:22: zero denominator in '-3/00'"),
    "fraction-for-integer": ("query chain_check d_n fb delta 1/2 upto 1/2",
                             "1:41: expected an integer, found '1/2'"),
    "tailed-pattern": ("set N = union(point 1/2, tail(right, point 0, 1, 5))\n"
                       "set S = tail(right, N, 1, 0)\nquery normalize S",
                       "2:28: tail pattern must be tail-free"),
    "built-in-set": ("set empty = point 1\nquery normalize empty",
                     "1:5: cannot declare 'empty': it is a built-in set word"),
    "built-in-metric": ("metric d_n = rho_S\nquery ball d_n at 0 radius 1/2",
                        "1:8: cannot declare 'd_n': it is a built-in metric word"),
}

# Samples for the reader words of the grammar tables.  A row that reads a
# word more than once takes its samples in turn: a fan needs lo < hi.
GRAMMAR_SAMPLES = {
    "SET": ("point 0",), "OPERAND": ("point 0",), "FAMILY": ("finite(point 0)",),
    "RANGE": ("all",), "METRIC": ("d_n_plus",), "BORN": ("fb",), "MAP": ("affine(1, 0)",),
    "LINE": ("standard/lst",), "KIND": ("nat",), "COLLECTION": ("C",),
    "RAT": ("1", "2"), "INT": ("1", "2"), "EXT": ("0", "1"), "AFF": ("0", "1"),
}
# The declaration an expression of each kind is tried in.
GRAMMAR_CONTEXT = {
    "SET": "set A = {}", "FAMILY": "family A = {}", "METRIC": "metric A = {}",
    "RANGE": "family A = periodic(point 0, 1, {})", "BORN": "bornology A = {}",
    "MAP": "map A = {}",
}


def filled(grammar: str) -> str:
    """A sample input of `grammar`: each list with one item, each choice
    its first word and each reader word its samples in turn."""
    text = re.sub(r"\[?(\w+(?:\([^()]*\))?), \.\.\.\]?\)", r"\1)", grammar)
    text = re.sub(r"(\w+)(?:\|\w+)+", r"\1", text)
    samples = {word: itertools.cycle(s) for word, s in GRAMMAR_SAMPLES.items()}
    return re.sub(r"\b[A-Z]+\b", lambda m: next(samples[m.group()]), text)


class TestParse:
    def test_spec_example(self):
        doc = parse("set A = union(interval(closed 0, open 1), point 2); "
                    "query boundedness A")
        assert len(doc.queries) == 1
        assert "A" in doc.sets

    def test_ball_query(self):
        doc = parse("query ball rho_S at 0 radius 1/2")
        rep = run(doc)
        assert rep.records[0].status == "ok"
        assert rep.records[0].detail == "[0, 1/2)"

    def test_unknown_identifier_diagnostic(self):
        with pytest.raises(ParseError) as e:
            parse("query boundedness MISSING")
        assert "unknown identifier" in str(e.value)
        assert "1:" in str(e.value)

    def test_duplicate_declaration(self):
        with pytest.raises(ParseError):
            parse("set A = empty; set A = reals")

    def test_comments_and_newlines(self):
        doc = parse("# heading\nset A = reals  # trailing\nquery subset A A\n")
        assert len(doc.queries) == 1

    def test_round_trip(self):
        text = """
set A = union(interval(closed 0, open 1), point 2)
set B = complement(A)
family F = periodic(interval(open 0, open 2), 1, all)
metric M = conj(rho_S)
bornology N = nat_bounded
map G = affine(2, 1)
query boundedness A
query subset A B
query ess_finite_on F A
query eval M 0 1/2
query chain_check d_n N delta 1/2 upto 8
"""
        doc = parse(text)
        doc2 = parse(doc.print())
        assert doc == doc2
        assert doc2.print() == doc.print()

    def test_round_trip_generated(self):
        rng = random.Random(3)
        pieces = ["set S%d = interval(%s %d, %s %d)" % (
            i, rng.choice(["open", "closed"]), rng.randint(-5, 0),
            rng.choice(["open", "closed"]), rng.randint(1, 6))
            for i in range(6)]
        pieces += ["query equal S0 S1", "query union_of finite(S2, S3)",
                   "query sample S4 from -2 to 2 step 1/2"]
        doc = parse("\n".join(pieces))
        assert parse(doc.print()) == doc


    @pytest.mark.parametrize("text,message", DIAGNOSTICS.values(), ids=DIAGNOSTICS.keys())
    def test_diagnostic_text(self, text, message):
        with pytest.raises(ParseError) as e:
            parse(text)
        assert str(e.value) == message

    @pytest.mark.parametrize("text", [
        "set A = point " + "1" * 5000,
        "set A = point 1/" + "3" * 5000,
        "query chain_check d_n fb delta 1/2 upto " + "9" * 5000,
    ], ids=["numerator", "denominator", "integer"])
    def test_overlong_literal_is_located(self, text):
        with pytest.raises(ParseError) as e:
            parse("set B = reals\n" + text)
        col = len(text) - text[::-1].index(" ") + 1
        assert str(e.value).startswith(f"2:{col}: literal longer than ")

    def test_literal_at_the_digit_limit_parses(self):
        digits = "7" * sys.get_int_max_str_digits()
        assert parse(f"set A = point -{digits}/{digits}").sets["A"] == \
            parse("set A = point -1").sets["A"]

    def test_print_is_a_parse_fixed_point(self):
        doc = parse(ALL_KINDS_DOC)
        printed = doc.print()
        assert parse(printed) == doc
        assert parse(printed).print() == printed
        assert printed.count("\n") == ALL_KINDS_DOC.count("\n")

    def test_equality_ignores_layout_only(self):
        doc = parse(ALL_KINDS_DOC)
        spaced = ALL_KINDS_DOC.replace(", ", " ,\t").replace("(", "( ") \
            .replace("\nquery", "  # note\n\n;query")
        assert spaced != ALL_KINDS_DOC
        assert parse(spaced) == doc
        assert parse(ALL_KINDS_DOC.replace("point 2,", "point 3,")) != doc
        assert parse(ALL_KINDS_DOC.replace("query normalize A\n", "")) != doc
        assert doc != ALL_KINDS_DOC


class TestRun:
    def test_chain_examples(self):
        text = """
bornology SYM = schema(closed affine(-1, -1), closed affine(1, 1))
bornology UBS = schema(open -inf, open affine(0, 1))
query chain_check d_n SYM delta 1/2 upto 64
query chain_check d_n_plus SYM delta 1/8 upto 64
query chain_check d_n_plus UBS delta 1/2 upto 64
"""
        rep = run(parse(text))
        assert [r.status for r in rep.records] == ["ok"] * 3
        assert rep.records[0].detail.startswith("pass")
        assert rep.records[1].detail.startswith("fail_at(1)")
        assert rep.records[2].detail.startswith("pass")

    def test_empty_doc(self):
        rep = run(parse(""))
        assert rep.records == ()
        assert rep.failures == 0 and rep.passes == 0

    def test_float_mode_ball_is_per_query_error(self):
        text = ("metric D = float_paper(d_n_plus)\n"
                "query ball D at 0 radius 1\n"
                "query eval D 0 1\n")
        rep = run(parse(text))
        assert rep.records[0].status == "error"
        assert "UnsupportedCombination" in rep.records[0].detail
        assert rep.records[1].status == "ok"

    def test_a_float_paper_ball_base_refuses_every_decision(self):
        # a float_paper metric bounds no set exactly: the EF decision on its
        # balls used to answer from the metric's sides while membership
        # refused; now all three refuse alike, whatever the family's shape
        doc = parse("bornology MB = metric_bounded(float_paper(d_n_plus))\n"
                    "query ef_member periodic(interval(open 0, open 1), 1, all) nat MB\n"
                    "query ef_member finite(interval(open 0, open 1)) nat MB\n"
                    "query bornology_member MB interval(closed 0, closed 1)\n")
        assert run(doc).machine_text().splitlines()[2:] == [
            "q000|ef_member|error|UnsupportedCombinationError: d-boundedness requires exact mode",
            "q001|ef_member|error|UnsupportedCombinationError: d-boundedness requires exact mode",
            "q002|bornology_member|error|UnsupportedCombinationError: "
            "d-boundedness requires exact mode",
            "summary pass=0 fail=3 total=3",
        ]

    def test_an_answer_too_long_to_print_names_the_limit(self):
        # both literals parse, and the eval answer's numbers pass the limit
        limit = sys.get_int_max_str_digits()
        doc = parse(f"query eval rho_S 1/{'9' * limit} 1/{'7' * limit}\n"
                    "query eval d_n 1 2\n")
        assert run(doc).machine_text().splitlines()[2:] == [
            f"q000|eval|error|ValueError: answer has a number longer than {limit} "
            "digits, the most a report prints",
            "q001|eval|ok|1",
            "summary pass=1 fail=1 total=2",
        ]

    def test_more_queries(self):
        text = """
set A = tail(left, interval(open 0, open 1/2), 1, 0)
query contains A -3/4
query normalize A
query sm_member standard/uf A
query pt_of standard/lom
query full_ring reals of (interval(closed 0, open 1), interval(closed 1, open 2))
query metrizable standard/lst nat_bounded d_n
query topology_of conj(rho_u)
"""
        rep = run(parse(text))
        assert all(r.status == "ok" for r in rep.records)
        detail = {r.kind: r.detail for r in rep.records}
        assert detail["contains"] == "true"
        assert detail["pt_of"] == "standard/lst"
        assert detail["metrizable"] == "CONSISTENT"
        assert detail["topology_of"] == "lower"


class TestCorpus:
    def test_default_battery_green(self):
        rep = corpus_verify()
        assert rep.failures == 0
        assert rep.passes == len(rep.records) > 150

    def test_determinism(self):
        a = corpus_verify().machine_text()
        b = corpus_verify().machine_text()
        assert a == b

    def test_machine_report_is_independent_of_the_hash_seed(self):
        # set iteration order changes with PYTHONHASHSEED, so only separate
        # processes can show an order dependence
        src = str(Path(gtsreal.__file__).resolve().parents[1])

        def corpus(seed):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            return subprocess.run(
                [sys.executable, "-m", "gtsreal.cli", "--format", "machine", "corpus"],
                env=env, capture_output=True, check=True).stdout

        first = corpus("0")
        assert first.startswith(b"gtsreal-report-v3")
        assert corpus("1") == first

    def test_family_caches_are_reused_and_hide_no_corrupted_row(self, monkeypatch):
        # a second battery in one process asks only questions the first asked
        union_of.cache_clear()
        ess_finite_on.cache_clear()
        first = corpus_verify().machine_text()
        misses = (union_of.cache_info().misses, ess_finite_on.cache_info().misses)
        assert corpus_verify().machine_text() == first
        assert (union_of.cache_info().misses, ess_finite_on.cache_info().misses) == misses
        # the caches are keyed on families and sets, not on the line table, so
        # warm caches still let a corrupted Sm cell make a record fail
        l = CORPUS[0]
        monkeypatch.setitem(lines._LINES, (l.family, l.variant),
                            replace(l.spec, sm=UF_SMALL if l.spec.sm != UF_SMALL else FB))
        records, probes = [], probe_corpus()
        for section in (_section_identities, _section_pt, _section_subsumption,
                        _section_refuters):
            section(records, probes)
        _section_wls(records)
        assert any(r.status == "fail" for r in records)

    def test_golden_report(self):
        # corpus_report.txt is `gtsreal --format machine corpus`
        golden = (Path(__file__).parent / "corpus_report.txt").read_bytes()
        assert corpus_verify().machine_text().encode("utf-8") == golden

    @pytest.mark.parametrize("l,cell,b", [
        pytest.param(l, cell, b, id=f"{l}-{cell}-{str(b).partition('[')[0]}")
        for l in CORPUS for cell in ("sm", "acb")
        for b in (FB, ALL_SETS, NAT_BOUNDED, UB, LB, UF_SMALL)
        if b != getattr(l.spec, cell)])
    def test_negative_control_corrupted_row(self, monkeypatch, l, cell, b):
        # put a wrong named bornology in one Sm or ACB cell of the line table:
        # the bornology sections must report a failure, and the slower
        # refuter and weak-local-smallness sections run only when they do not
        monkeypatch.setitem(lines._LINES, (l.family, l.variant),
                            replace(l.spec, **{cell: b}))
        records, probes = [], probe_corpus()
        for section in (_section_identities, _section_pt, _section_subsumption):
            section(records, probes)
        if all(r.status == "pass" for r in records):
            _section_refuters(records, probes)
            _section_wls(records)
        assert any(r.status == "fail" for r in records)


class TestMain:
    def test_print_grammar(self, capsys):
        assert main(["print-grammar"]) == 0
        out = capsys.readouterr().out
        for name, q in QUERIES.items():
            assert f"  query {name} {q.grammar}\n" in out
        # each expression kind prints its rows, one per line, in order
        for word, kind in EXPRESSIONS.items():
            section = out.split(f"\n{word}:\n", 1)[1].split("\n\n", 1)[0].splitlines()
            assert section[len(kind.rows):] == (["  NAME"] if kind.env else [])
            for line, (keyword, row) in zip(section, kind.rows.items()):
                assert line.startswith(f"  {keyword}")
                assert line[2 + len(keyword):].lstrip() == row.grammar
        # what the parser reads, where the hand-kept grammar used to differ
        assert "  interval(open|closed EXT, open|closed EXT)\n" in out
        assert "AFF is affine(RAT, RAT) | RAT | inf | -inf:" in " ".join(out.split())
        # a document built from each row's grammar parses
        head = "collection C = collection(finite(point 0))\n"
        for word, kind in EXPRESSIONS.items():
            for keyword, row in kind.rows.items():
                g = row.grammar
                text = GRAMMAR_CONTEXT[word].format(
                    keyword + ("" if g[:1] in ("", "(") else " ") + filled(g))
                assert parse(head + text).print().splitlines()[1] == text
        for name, q in QUERIES.items():
            assert parse(head + f"query {name} {filled(q.grammar)}").queries[0][0] == name

    @pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_document_is_a_parse_error(self, tmp_path, capsys, text):
        f = tmp_path / "bad.gts"
        f.write_text(text, encoding="utf-8")
        assert main(["eval", str(f)]) == 2
        assert capsys.readouterr().err.startswith("parse error: ")

    def test_nesting_up_to_the_limit_parses(self):
        depth = MAX_NESTING - 1     # interval(...) is one more level
        nest = "complement(" * depth + "interval(open 0, open 1)" + ")" * depth
        inner = parse("set A = interval(open 0, open 1)").sets["A"]
        assert parse("set A = " + nest).sets["A"] == \
            (inner.complement() if depth % 2 else inner)
        with pytest.raises(ParseError):
            parse("set A = complement(" + nest + ")")

    def test_eval_file(self, tmp_path, capsys):
        f = tmp_path / "doc.gts"
        f.write_text("query ball rho_S at 0 radius 1/2\n", encoding="utf-8")
        assert main(["eval", str(f)]) == 0
        out = capsys.readouterr().out
        assert "[0, 1/2)" in out

    def test_eval_machine_report(self, tmp_path):
        f = tmp_path / "doc.gts"
        f.write_text("query eval rho_S 0 1/2\nquery eval rho_S 1/2 0\n",
                     encoding="utf-8")
        out = tmp_path / "report.txt"
        assert main(["--format", "machine", "--report", str(out),
                     "eval", str(f)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text.startswith("gtsreal-report-v3")
        assert "q000|eval|ok|1/2" in text
        assert "q001|eval|ok|1" in text

    def test_parse_error_exit_code(self, tmp_path, capsys):
        f = tmp_path / "bad.gts"
        f.write_text("query frobnicate", encoding="utf-8")
        assert main(["eval", str(f)]) == 2
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["missing", "not-utf8", "directory", "report-dir"])
    def test_file_errors_are_one_line_exit_2(self, tmp_path, capsys, case):
        doc = tmp_path / "doc.gts"
        doc.write_bytes(b"query normalize reals\n" + (b"\xff" if case == "not-utf8" else b""))
        argv, message = {
            "missing": (["eval", str(tmp_path / "none.gts")],
                        f"cannot read {tmp_path / 'none.gts'}: No such file or directory"),
            "not-utf8": (["eval", str(doc)],
                         f"cannot read {doc}: not UTF-8 (byte 0xff at offset 22)"),
            "directory": (["eval", str(tmp_path)], f"cannot read {tmp_path}: Is a directory"),
            "report-dir": (["--report", str(tmp_path / "none" / "r.txt"), "eval", str(doc)],
                           f"cannot write the report to {tmp_path / 'none' / 'r.txt'}: "
                           "No such file or directory"),
        }[case]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"gtsreal: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("flag", ["--caps-chain", "--caps-depth"])
    def test_removed_caps_flags_are_usage_errors(self, flag, capsys):
        # no cap bounds an answer, so no flag sets one
        with pytest.raises(SystemExit) as e:
            main(["corpus", flag, "2"])
        assert e.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err

    def test_readme_flags_name_the_parser_options(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
            encoding="utf-8")
        flags = readme.split("\nFlags: ", 1)[1].split("\n\n", 1)[0]
        named = {m.split()[0] for m in re.findall(r"`(--[^`]*)`", flags)}
        defined = {o for a in _parser()._actions for o in a.option_strings
                   if o.startswith("--") and o != "--help"}
        assert named == defined == {"--report", "--format"}

    @pytest.mark.parametrize("command", ["eval", "corpus"])
    def test_header_names_no_cap(self, tmp_path, command):
        f = tmp_path / "doc.gts"
        f.write_text("query eval rho_S 0 1/2\n", encoding="utf-8")
        out = tmp_path / "report.txt"
        argv = ["--format", "machine", "--report", str(out), command]
        assert main(argv + ([str(f)] if command == "eval" else [])) == 0
        assert out.read_text(encoding="utf-8").splitlines()[:2] == \
            ["gtsreal-report-v3", "caps none"]

    def test_index_bounds_bound_no_answer(self):
        # a bound at or above the first base index reads the same answer
        born = ("nat_bounded", "ub", "fb", "schema(closed affine(-1, -1), closed affine(1, 1))",
                "schema(open 0, open affine(0, 1))", "metric_bounded(d_n_plus)")
        queries = [q for b in born for q in (
            f"chain_check d_n_plus {b} delta 1/8 upto {{}}",
            f"chain_check rho_S_minus {b} delta 1/2 upto {{}}",
            f"chain_search d_n_plus {b} upto {{}}",
            f"uniform_chain rho_S_minus {b} upto {{}}",
            f"uniform_chain rho_0 {b} upto {{}}",
            f"proper_check {b} nat sorg_r {{}}",
            f"proper_check {b} upper lower {{}}")]
        reports = [run(parse("".join(f"query {q.format(n)}\n" for q in queries))).machine_text()
                   for n in (0, 16, 1000000000)]
        assert reports[0] == reports[1] == reports[2]
        assert reports[0].count("|ok|") == len(queries)

    def test_shared_argument_parser_keeps_no_state(self, tmp_path, capsys):
        f = tmp_path / "doc.gts"
        f.write_text("query eval rho_S 0 1/2\nquery chain_check d_n fb delta 1/2 upto 4\n",
                     encoding="utf-8")
        out, human, fresh = (tmp_path / name for name in ("report.txt", "human.txt",
                                                           "fresh.txt"))
        assert main(["--format", "human", "--report", str(human), "eval", str(f)]) == 0
        assert main(["--format", "machine", "eval", str(f)]) == 0
        assert capsys.readouterr().out.startswith("gtsreal-report-v3\ncaps none\n")
        with pytest.raises(SystemExit) as e:
            main(["--format", "xml", "--report", str(out), "eval", str(f)])
        assert e.value.code == 2 and not out.exists()
        assert main(["--report", str(out), "eval", str(f)]) == 0
        assert out.read_bytes() == human.read_bytes()
        assert main(["--format", "machine", "--report", str(out), "eval", str(f)]) == 0
        src = str(Path(gtsreal.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "gtsreal.cli", "--format", "machine",
             "--report", str(fresh), "eval", str(f)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True)
        assert proc.returncode == 0
        assert out.read_bytes() == fresh.read_bytes()

    def test_out_of_range_bounds_give_error_records(self, tmp_path):
        f = tmp_path / "bounds.gts"
        f.write_text(
            "collection PSI = collection(finite(interval(open 0, open 1)))\n"
            "query member_generated finite(interval(open 0, open 1)) PSI -1\n"
            "query member_generated finite(interval(open 5, open 6)) PSI -1\n"
            "query proper_check nat_bounded nat nat -3\n"
            "query chain_search d_n_plus schema(closed affine(-1, -1), "
            "closed affine(1, 1)) upto -2\n"
            "query chain_check d_n_plus schema(closed affine(-1, -1), "
            "closed affine(1, 1)) delta 1/8 upto -2\n"
            "query uniform_chain d_n_plus schema(closed affine(-1, -1), "
            "closed affine(1, 1)) upto -2\n"
            "query oracle_ess_finite finite(interval(open 0, open 5)) window 0 0 "
            "interval(closed 1, closed 2) max 0\n"
            "query oracle_ess_finite finite(interval(open 0, open 5)) window 0 0 "
            "interval(closed 1, closed 2) max 1\n",
            encoding="utf-8")
        out = tmp_path / "report.txt"
        assert main(["--format", "machine", "--report", str(out), "eval", str(f)]) == 1
        assert out.read_text(encoding="utf-8").splitlines()[2:] == [
            "q000|member_generated|error|PreconditionError: generation depth -1 is negative",
            "q001|member_generated|error|PreconditionError: generation depth -1 is negative",
            "q002|proper_check|error|PreconditionError: "
            "index bound -3 is below the first base index 0",
            "q003|chain_search|error|PreconditionError: "
            "index bound -2 is below the first base index 0",
            "q004|chain_check|error|PreconditionError: "
            "index bound -2 is below the first base index 0",
            "q005|uniform_chain|error|PreconditionError: "
            "index bound -2 is below the first base index 0",
            "q006|oracle_ess_finite|ok|false",
            "q007|oracle_ess_finite|ok|true",
            "summary pass=2 fail=6 total=8",
        ]

    def test_oversized_sample_grid_is_an_error_record(self, tmp_path):
        f = tmp_path / "sample.gts"
        f.write_text("query sample reals from 0 to 1 step 1/100000000\n", encoding="utf-8")
        out = tmp_path / "report.txt"
        t0 = time.perf_counter()
        assert main(["--format", "machine", "--report", str(out), "eval", str(f)]) == 1
        assert time.perf_counter() - t0 < 1
        assert out.read_text(encoding="utf-8").splitlines()[2:] == [
            "q000|sample|error|ConstructionError: "
            "sampling window holds 100000001 grid points, more than 100000",
            "summary pass=0 fail=1 total=1",
        ]

    def test_all_kinds_golden_report(self, tmp_path):
        f = tmp_path / "all.gts"
        f.write_text(ALL_KINDS_DOC, encoding="utf-8")
        out = tmp_path / "report.txt"
        assert main(["--format", "machine", "--report", str(out),
                     "eval", str(f)]) == 0
        assert out.read_text(encoding="utf-8") == ALL_KINDS_REPORT
        kinds = {line.split("|")[1] for line in ALL_KINDS_REPORT.splitlines()[2:-1]}
        assert kinds == set(QUERIES)

    def test_nested_families_golden_report(self, tmp_path):
        f = tmp_path / "nested.gts"
        f.write_text(NESTED_FAMILIES_DOC, encoding="utf-8")
        out = tmp_path / "report.txt"
        # the ef_member precondition errors make the exit code 1
        assert main(["--format", "machine", "--report", str(out),
                     "eval", str(f)]) == 1
        assert out.read_text(encoding="utf-8") == NESTED_FAMILIES_REPORT

    def test_exact_bornology_and_properness_answers(self, tmp_path):
        # FAR has a fixed end past every probe and LATE's first element comes
        # at n = 1000: index and probe sweeps answered CONSISTENT, PROPER and
        # true here; the closed forms answer for every index
        f = tmp_path / "exact.gts"
        f.write_text(
            "bornology FAR = schema(closed -1000, closed affine(0, 1))\n"
            "bornology LATE = schema(closed 0, closed affine(-1000, 1))\n"
            "query metrizable sorgenfrey/lst FAR rho_0\n"
            "query bornology_member FAR point -1001\n"
            "query bounded_set rho_0 point -1001\n"
            "query proper_check LATE nat nat 16\n"
            "query base_check LATE nat\n",
            encoding="utf-8")
        out = tmp_path / "report.txt"
        assert main(["--format", "machine", "--report", str(out), "eval", str(f)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()[2:]
        assert lines == [
            "q000|metrizable|ok|INCONSISTENT part=bornology: "
            "set {-1001}: d-bounded but outside the bornology",
            "q001|bornology_member|ok|false",
            "q002|bounded_set|ok|true",
            "q003|proper_check|ok|IMPROPER at n=1000 closure={0}",
            "q004|base_check|ok|false",
            "summary pass=5 fail=0 total=5",
        ]
