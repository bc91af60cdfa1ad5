"""Link-level simulator for uplink massive MIMO with one-bit ADCs.

Eight linear receivers (conventional, approximation-based, and
Bussgang-based) compared by Monte Carlo bit-error-rate simulation.
"""

from .bussgang import (
    ALPHA_ONE_BIT,
    AqnmParameters,
    QuantizedStatistics,
    aqnm_covariance,
    effective_noise_covariance,
    received_covariance,
)
from .channel import (
    SystemConfig,
    draw_channel,
    noise_power_from_snr_db,
    one_bit_quantize,
    transmit,
)
from .linalg import elementwise_arcsin
from .modulation import (
    Constellation,
    make_constellation,
    map_bits_to_symbols,
    symbols_to_bits,
)
from .montecarlo import (
    BerRecord,
    TrialPlan,
    ber_sweep,
    residual_cross_covariance,
    run_trial,
    sample_output_covariance,
    wilson_interval,
)
from .receivers import (
    Combiner,
    ReceiverKind,
    build_combiner,
    detect,
    detect_pipeline,
    rescale,
)
from .results import emit_results, read_records
from .rng import trial_streams

__version__ = "0.1.0"
