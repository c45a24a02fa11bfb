"""seq2seq forecaster: the LSTM encoder–decoder wrapped as a Forecaster.

This is the FoReCo-facing adapter around :class:`repro.nn.seq2seq.Seq2SeqModel`
— the many-to-one LSTM encoder–decoder the paper trains with Adam (§IV-B,
§IV-C).  The defaults mirror the paper (encoder 200, decoder 30, ReLU
activations, Adam with η=0.001/β1=0.9/β2=0.999/ε=1e-7); tests and CI-sized
experiments pass much smaller layer sizes and epoch counts because the NumPy
BPTT implementation is orders of magnitude slower than TensorFlow on a GPU.

The paper finds that seq2seq *under-performs* MA and VAR on this task because
its ~164k weights do not converge on the available dataset; the reproduction
shows the same qualitative ordering (see Fig. 7 in docs/figures.md).
"""

from __future__ import annotations

import numpy as np

from .._validation import ensure_int
from ..nn.seq2seq import Seq2SeqModel
from .base import Forecaster, sliding_windows


class Seq2SeqForecaster(Forecaster):
    """LSTM encoder–decoder forecaster (paper §IV-B, "seq2seq")."""

    name = "seq2seq"
    # The forward pass is pure (no predict-time state), so a shared instance
    # is batch-safe.  Unlike MA/VAR there is no vectorized kernel: stacking
    # the LSTM matmuls across repetitions would route through BLAS gemm,
    # whose reduction order depends on the batch size and would break the
    # bit-identity contract — so the batch runs one forward pass per row.
    supports_batch_predict = True

    def __init__(
        self,
        record: int = 5,
        encoder_units: int = 200,
        decoder_units: int = 30,
        epochs: int = 3,
        batch_size: int = 32,
        learning_rate: float = 0.001,
        max_training_windows: int | None = 2000,
        seed: int | None = 0,
    ) -> None:
        super().__init__(record=record)
        self.encoder_units = ensure_int("encoder_units", encoder_units, minimum=1)
        self.decoder_units = ensure_int("decoder_units", decoder_units, minimum=1)
        self.epochs = ensure_int("epochs", epochs, minimum=1)
        self.batch_size = ensure_int("batch_size", batch_size, minimum=1)
        self.learning_rate = learning_rate
        self.max_training_windows = (
            None if max_training_windows is None
            else ensure_int("max_training_windows", max_training_windows, minimum=1)
        )
        self.seed = seed
        self.model: Seq2SeqModel | None = None
        self.training_history: list[float] = []

    # ----------------------------------------------------------------- fit
    def _fit(self, commands: np.ndarray) -> None:
        windows, targets = sliding_windows(commands, self.record)
        if self.max_training_windows is not None and windows.shape[0] > self.max_training_windows:
            # Uniformly subsample the training windows to bound NumPy-BPTT time.
            stride = windows.shape[0] // self.max_training_windows
            windows = windows[::stride][: self.max_training_windows]
            targets = targets[::stride][: self.max_training_windows]
        self.model = Seq2SeqModel(
            input_dim=commands.shape[1],
            encoder_units=self.encoder_units,
            decoder_units=self.decoder_units,
            learning_rate=self.learning_rate,
            seed=self.seed,
        )
        result = self.model.fit(
            windows, targets, epochs=self.epochs, batch_size=self.batch_size
        )
        self.training_history = list(result.loss_history)

    # ------------------------------------------------------------- predict
    def _predict_next(self, history: np.ndarray) -> np.ndarray:
        assert self.model is not None  # guaranteed by Forecaster.fit
        return self.model.predict(history)

    def _predict_next_batch(self, windows: np.ndarray) -> np.ndarray:
        assert self.model is not None  # guaranteed by Forecaster.fit
        return self.model.predict_batch(windows)

    @property
    def n_parameters(self) -> int:
        """Number of scalar weights ``|w|`` in the underlying network."""
        return 0 if self.model is None else self.model.n_parameters
