"""Attacks: data poisoning and the privacy attacks of Section VII.

* :mod:`repro.attacks.trojan` — the Trojaning Attack (Liu et al., NDSS'18)
  used in the paper's accountability evaluation (Experiment IV).
* :mod:`repro.attacks.badnets` — BadNets-style training-time poisoning.
* :mod:`repro.attacks.mislabel` — mislabeled-data injection (modelling the
  VGG-Face class-0 label noise the paper discovered).
* :mod:`repro.attacks.reconstruction` — input reconstruction from IRs,
  validating the FrontNet-secrecy argument.
* :mod:`repro.attacks.membership` — membership inference, for the DP-SGD
  countermeasure ablation.
"""

from repro.attacks.badnets import BadNetsAttack
from repro.attacks.gan_attack import GanAttack
from repro.attacks.inversion import ModelInversionAttack, class_direction_correlation
from repro.attacks.membership import membership_inference_auc
from repro.attacks.mislabel import inject_mislabeled
from repro.attacks.reconstruction import InputReconstructionAttack
from repro.attacks.trojan import TrojanAttack, TrojanResult, stamp_trigger

__all__ = [
    "TrojanAttack",
    "TrojanResult",
    "stamp_trigger",
    "BadNetsAttack",
    "inject_mislabeled",
    "InputReconstructionAttack",
    "membership_inference_auc",
    "ModelInversionAttack",
    "class_direction_correlation",
    "GanAttack",
]
