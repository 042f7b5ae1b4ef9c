"""Decision procedures for families of automata over ultimately periodic
omega-words: saturation checks, almost-saturation, UP-regularity, model
translations, and active/passive learners, each validated by brute-force
oracles."""

from .almost import check_almost_saturated, gen_intersection_fdfa
from .automata import Dfa, Nba, Nfa, TransitionSystem, is_weak, minimize_dfa
from .errors import (CapExceededError, InputError, PreconditionError,
                     ProtocolError, UpfamError, Verdict)
from .family import (Counterexample, Family, ReferenceSet, family_accepts,
                     is_normalized, normalize, refine_family, up_membership)
from .faf import (dfa_to_dot, family_to_dot, nba_to_dot, parse_dfa_doc,
                  parse_faf, parse_sample, serialize_dfa_doc, serialize_faf,
                  serialize_nba, serialize_sample)
from .learning import (DOLLAR, LearnLog, Sample, Teacher, default_fdfa,
                       dollar_dfa_to_fdfa, fdfa_to_dollar_dfa,
                       gen_char_sample, learn_active, learn_passive,
                       make_teacher)
from .regularity import (GoodWitness, check_regular, classify_profile,
                         find_good_witness, gen_ter_hardness,
                         label_by_leading, stabilize)
from .saturation import (check_fdwa_saturated, check_loopshift_stable,
                         check_power_stable, check_saturated)
from .translate import (GEN_FAMILY_NAMES, complement_saturated_fdwa,
                        duo_accepts, duo_to_fdwa, fdwa_to_duo, fdwa_to_nba,
                        gen_family, is_duo_normalized)
from .words import Representation, Word, canonical_pair, root, up_equal

__version__ = "0.1.0"
