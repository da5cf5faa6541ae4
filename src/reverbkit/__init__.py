"""Trainable room-reverberation modeling toolkit.

Convolves dry waveforms with room impulse responses in the frequency
domain, learns the RIR either as one shared trainable vector or as a
per-utterance prediction from a small recurrent network, trains against
multi-resolution spectral losses, and evaluates via Schroeder T60
analysis on synthetic rooms with known ground truth.
"""

import os

# One BLAS thread unless the environment says otherwise.  The matrix
# products here are small (GRU gates of a few dozen units over a few
# hundred frames); a threaded BLAS gains nothing on them, and with the
# other cores busy each threaded call waits for its helpers: a GRU
# forward took 24 ms threaded against 3 ms on one thread.  The pools are
# sized when numpy loads, so this runs before the first numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .convolve import ConvGrad, convolve_direct, convolve_fft, convolve_grad
from .dsp import (AMPLITUDE_FLOOR, LasFrames, StftConfig, Waveform, fft, irfft,
                  las, log_amplitude, rfft, stft)
from .estimator import (UtvEstimatorParams, estimator_backward,
                        estimator_forward, gru_forward, temporal_avg_pool)
from .fileio import (FormatError, load_checkpoint, read_rir, read_wav,
                     save_checkpoint, write_rir, write_wav)
from .losses import mrsd_loss, secondary_dry_loss, waveform_mse_loss
from .optim import AdamState, adam_step, grad_check
from .rir import (Rir, RoomSpec, assemble, edc, estimate_t60, synth_rir,
                  t60_error_stats)
from .simdata import (DatasetManifest, Utterance, build_dataset, gen_f0_track,
                      load_manifest, load_utterances)
from .training import (TrainHyper, TrainReport, train_gti, train_mt, train_utv)
from .vocoder import (F0Track, ToyVocoderParams, sine_source, vocoder_backward,
                      vocoder_forward)

__version__ = "0.1.0"
